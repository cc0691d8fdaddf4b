"""Every library entry that takes a function takes it in every form: an
expression string, a parsed AST, a BivariateFn or UnivariateFn, a
numpy-broadcasting callable, and a callable that returns one value.  Each
form gives exactly what the expression string gives."""

import numpy as np
import pytest

from steff2d.copula import archimedean
from steff2d.core import Rect
from steff2d.expr import (
    BivariateFn,
    UnivariateFn,
    as_bivariate,
    as_univariate,
    parse,
    parse_univariate,
)
from steff2d.monotone import certify
from steff2d.quad import (
    Antiderivative1D,
    CumulativePrimitive,
    cumulative,
    integrate1d,
    integrate2d,
    stieltjes2d,
)

UNIT = Rect(0.0, 1.0, 0.0, 1.0)
TS = np.linspace(0.0, 1.0, 7)


def lattice(W):
    return W(TS[:, None], TS[None, :]).tolist()


# entry -> (arity of its function argument, what the entry makes of it)
ENTRIES = {
    "integrate1d": (1, lambda fn: integrate1d(fn, 0.0, 1.0)),
    "integrate2d": (2, lambda fn: integrate2d(fn, UNIT)),
    "Antiderivative1D": (1, lambda fn: Antiderivative1D(fn, 0.0, 1.0)(TS).tolist()),
    "CumulativePrimitive": (2, lambda fn: lattice(CumulativePrimitive(fn, UNIT))),
    "cumulative": (2, lambda fn: lattice(cumulative(fn, UNIT, "upper"))),
    "certify": (2, lambda fn: certify(fn, UNIT, grid=8).to_dict()),
    "stieltjes2d": (2, lambda fn: (stieltjes2d(fn, "x*y", UNIT, partition=8).to_dict(),
                                   stieltjes2d("x + y", fn, UNIT, partition=8).to_dict())),
}

# form -> the expression it stands for and the argument, by arity
FORMS = {
    "string": {1: ("t*t + 1", "t*t + 1"), 2: ("x*y + 1", "x*y + 1")},
    "ast": {1: ("t*t + 1", parse_univariate("t*t + 1")), 2: ("x*y + 1", parse("x*y + 1"))},
    "function object": {1: ("t*t + 1", as_univariate("t*t + 1")),
                        2: ("x*y + 1", as_bivariate("x*y + 1"))},
    "callable": {1: ("t*t + 1", lambda t: t * t + 1), 2: ("x*y + 1", lambda x, y: x * y + 1)},
    "one value": {1: ("2", lambda t: 2.0), 2: ("2", lambda x, y: 2.0)},
}


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_form_gives_what_its_expression_gives(entry, form):
    arity, run = ENTRIES[entry]
    text, fn = FORMS[form][arity]
    assert run(fn) == run(text)


@pytest.mark.parametrize("coerce", [as_bivariate, as_univariate])
def test_anything_else_is_a_type_error(coerce):
    with pytest.raises(TypeError, match="cannot interpret int"):
        coerce(3)


class TestNamesOnDemand:
    def test_an_ast_backed_function_renders_its_text_where_it_is_read(self):
        f = BivariateFn.from_ast(parse("x*y + 1"))
        assert f.name is None
        assert f.expression == "x * y + 1.0"
        assert f.symbolic_partial("x").name is None
        g = UnivariateFn.from_ast(parse_univariate("t*t"))
        assert g.name is None
        assert repr(g) == "UnivariateFn('x * x')"

    def test_an_expression_keeps_its_source_text(self):
        assert BivariateFn.from_expression("x*y").name == "x*y"
        assert UnivariateFn.from_expression("t^2").name == "t^2"

    def test_the_archimedean_label_renders_an_ast_backed_generator(self):
        assert archimedean(parse_univariate("1/t - 1")).name == "archimedean(1.0 / x - 1.0)"
        assert archimedean("1/t - 1").name == "archimedean(1/t - 1)"
        assert archimedean(lambda t: 1.0 / t - 1.0).name == "archimedean(phi)"
