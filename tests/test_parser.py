"""Grammar round-trip and error reporting for the expression parser."""

import copy
import hashlib
import random
from fractions import Fraction

import pytest

from winfty.cli import main
from winfty.lattice import Lattice
from winfty.parser import (ParseError, Session, UnknownSymbolError, as_element,
                           evaluate, parse, parse_element)
from winfty.printer import format_element
from winfty.scalars import Ring, Scalar
from winfty.weyl import SubalgebraError, Weyl, WeylElement

W = Weyl(1)
W1 = Weyl(1, subalgebra="w1")
S = Session(W)
S1 = Session(W1)


def test_monomial_td():
    assert parse_element("t^(1)*D", S1) == W1.tD((1,))


def test_bracket_expression():
    assert parse_element("[t^(1)*D, t^(2)*D]", S1) == W1.tD((3,))


def test_two_variable_monomial():
    w2 = Weyl(2)
    got = parse_element("3/2*t[1,0]*D1^2*D2", Session(w2))
    assert got == w2.monomial((1, 0), (2, 1), Fraction(3, 2))


def test_precedence_pow_over_mul_over_add():
    got = parse_element("2*D^2 + 3*t^(1)*D", S)
    assert got == W.monomial((0,), (2,), 2) + W.tD((1,)).scale(3)


def test_parentheses_and_unary_minus():
    got = parse_element("-(t^(1)*D - t^(2)*D)", S)
    assert got == W.tD((2,)) - W.tD((1,))


def test_ddt_powers_go_through_the_product():
    got = parse_element("(d/dt)^2", S)
    assert got == W.monomial((-2,), (2,)) - W.monomial((-2,), (1,))


def test_cube_identity_via_parser():
    res = parse_element("[(d/dt)^2,[(d/dt)^2,t^(2)*d/dt]] - 8*(d/dt)^3", S)
    assert res.is_zero()


@pytest.mark.parametrize("flavor", ["w1", "hat"])
@pytest.mark.parametrize("text", ["t^(2)*d/dt", "t^(1)*(D + D^2)",
                                  "t^(1)*[t^(1)*D, t^(2)*D]"])
def test_t_only_left_factor_multiplies_any_element(text, flavor):
    # before, each exited 2 with "|mu| = 0 monomials are not in W^(1)": the
    # t-only prefix was admitted as a monomial of the flavor before the product
    weyl = Weyl(1, subalgebra=flavor)
    got = parse_element(text, Session(weyl))
    assert format_element(got) == format_element(parse_element(text, S))
    with pytest.raises(ValueError, match=r"^grade \(1/2\) is not in the lattice$"):
        parse_element("t^(1/2)*(D)", Session(weyl))


def test_right_t_factor_still_refused_in_w1():
    # D*t^(1) = t^(1) + t^(1)*D has a D^0 term
    with pytest.raises(SubalgebraError):
        parse_element("D*t^(1)", S1)


def test_falling_monomial():
    got = parse_element("t^(2)*[D]_3", S)
    assert got == W.monomial((2,), (3,), basis="falling")


def test_central_element_requires_hat():
    hat = Weyl(1, subalgebra="hat")
    got = parse_element("t^(1)*D + 5/3*C", Session(hat))
    assert got.central == hat.ring.const(Fraction(5, 3))
    with pytest.raises(UnknownSymbolError):
        parse_element("C", S)


def test_scalar_expressions():
    ring = Ring(("alpha",))
    sess = Session(Weyl(1, ring=ring))
    got = parse_element("(alpha + 1)^2", sess)
    assert isinstance(got, Scalar)
    a = ring.sym("alpha")
    assert got == a * a + 2 * a + 1


@pytest.mark.parametrize("text,expected", (
    ("theta", ("name", "theta", 0)),  # a name, not a t-monomial
    ("tx", ("name", "tx", 0)),
    ("d", ("name", "d", 0)),  # a name, not d/dt
    ("\u0663", ("num", 3)),  # ARABIC-INDIC DIGIT THREE is a decimal digit
    ("t^(1)*\tD", ("prod", ((0, ("t", (1,), 0)), (5, ("d", 0, False, 7))))),
))
def test_tokens_read_as_the_grammar_says(text, expected):
    assert parse(text) == expected


@pytest.mark.parametrize("text,message,position", (
    ("Dx", "trailing input 'x'", 1),  # D, then the name x
    # a character that starts no token is reported before an earlier syntax error
    ("t^(1)* + D $", "unexpected character '$'", 11),
    ("1 / 2", "unexpected character '/'", 2),
    ("D^1/2", "exponent must be a nonnegative integer", 2),
    ("t^(1)^x", "exponent must be a nonnegative integer", 6),
))
def test_token_errors_carry_their_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize("n,params,text", (
    (1, False, "3/2*t^(2)*D^2"),
    (2, True, "alpha*t[1,0]*D1*D2"),
    (2, False, "[D1]_1*[D2]_2"),
    (2, False, "t[1,0]*t[0,1]*D2"),
))
def test_evaluating_an_ast_twice_leaves_it_unchanged(n, params, text):
    # a written monomial's factors merge in place into one _Mono, which must
    # share nothing with the AST or with another evaluation
    session = Session(Weyl(n, ring=Ring(("alpha",)) if params else None))
    ast = parse(text)
    before = copy.deepcopy(ast)
    first = evaluate(ast, session)
    assert evaluate(ast, session) == first
    assert ast == before


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("t^(1)* + D")
    assert err.value.position == 7


def test_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        parse_element("t^(1)*D*zeta", S)


def test_subalgebra_violation_in_w1_mode():
    with pytest.raises(SubalgebraError):
        parse_element("t^(1)", S1)


def test_dimension_errors():
    with pytest.raises(ParseError):
        parse_element("t[1,0]*D1", S)  # n = 1 session
    w2 = Weyl(2)
    with pytest.raises(ParseError):
        parse_element("D", Session(w2))  # ambiguous without index
    with pytest.raises(ParseError):
        parse_element("D3", Session(w2))


def test_long_element_round_trips():
    # before, sums nested one level per summand, and evaluating this
    # 1500-term element exceeded the recursion limit
    x = WeylElement(W, {((Fraction(k),), (1,)): W.ring.const(k) for k in range(1, 1501)})
    assert parse_element(format_element(x), S) == x


def _sixths(n):
    """(1/6)Z^n: it holds every grade the random elements and the corpus
    write, whose denominators are 1, 2 and 3."""
    return Lattice([[Fraction(int(i == j), 6) for j in range(n)] for i in range(n)])


def rand_elt(weyl, rng, basis="power", allow_sym=False, central=False):
    out = weyl.zero()
    for _ in range(rng.randint(1, 5)):
        g = tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
                  for _ in range(weyl.n))
        mu = [0] * weyl.n
        for _ in range(rng.randint(0, 3)):
            mu[rng.randrange(weyl.n)] += 1
        if weyl.subalgebra != "full" and sum(mu) == 0:
            mu[0] = 1
        c = weyl.ring.const(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)))
        if allow_sym and rng.random() < 0.4:
            c = c + weyl.ring.sym("alpha") ** rng.randint(1, 2)
        out = out + weyl.monomial(g, tuple(mu), c, basis=basis)
    if central and rng.random() < 0.7:
        out = out + weyl.central(Fraction(rng.randint(-5, 5) or 2, 3))
    return out


def test_round_trip_500_random_elements():
    rng = random.Random(11)
    ringp = Ring(("alpha", "beta"))
    settings = [
        (lambda: Weyl(1, lattice=_sixths(1)), "power", False, False),
        (lambda: Weyl(2, lattice=_sixths(2)), "power", False, False),
        (lambda: Weyl(1, lattice=_sixths(1), subalgebra="w1"), "power", False, False),
        (lambda: Weyl(1, ring=ringp, lattice=_sixths(1), subalgebra="hat"), "power", True, True),
        (lambda: Weyl(1, lattice=_sixths(1)), "falling", False, False),
        (lambda: Weyl(2, ring=ringp, lattice=_sixths(2)), "falling", True, False),
    ]
    done = 0
    while done < 500:
        make, basis, sym, cen = rng.choice(settings)
        weyl = make()
        x = rand_elt(weyl, rng, basis, sym, cen)
        if x.is_zero():
            continue
        text = format_element(x)
        y = as_element(parse_element(text, Session(weyl)), weyl)
        assert y == x, text
        # equality crosses bases, so the text and the basis are checked too
        assert format_element(y) == text
        if any(any(mu) for _g, mu in x.terms):
            assert y.basis == x.basis, text
        done += 1


# -- flat sums against their left-parenthesized form -------------------------
#
# A sum a + b + c + ... is evaluated by one left-to-right fold; its value and
# its first error must be those of ((a + b) + c) + ..., where each "+" adds
# two finished values.  The corpus mixes every way a summand can disagree with
# the partial sum about its basis, its membership in W^(1) and its scalar-ness.

_CORPUS_SETTINGS = (
    (1, "full", False), (1, "w1", False), (1, "hat", False), (2, "full", False),
    (2, "w1", False), (1, "full", True), (1, "hat", True), (2, "full", True),
)


def _c_rat(rng):
    return str(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))))


def _c_coeff(rng, params):
    pool = ["0", "1", "2", "3/2", "5/3", "7"]
    if params:
        pool += ["alpha", "(alpha + 1)", "(alpha - alpha)"]
    return rng.choice(pool)


def _c_t(rng, n):
    if n == 1:
        return f"t^({_c_rat(rng)})"
    return f"t[{_c_rat(rng)},{_c_rat(rng)}]"


def _c_d(rng, n, falling, strict):
    """A D-part, usually in the expression's basis ``falling``; order 0 is
    rarer in ``strict`` sessions (w1/hat), which reject D-free monomials."""
    name = "D" if n == 1 else f"D{rng.randint(1, n)}"
    low = 1 if strict and rng.random() < 0.9 else 0
    kind = rng.random()
    if kind < 0.04:
        return f"{name}^2*[{name}]_1" if rng.random() < 0.5 else f"[{name}]_1*[{name}]_2"
    if (kind < 0.9) == falling:
        return f"[{name}]_{rng.randint(low, 3)}"
    e = rng.randint(low, 2)
    return name if e == 1 else f"{name}^{e}"


def _c_mono(rng, n, params, falling, strict, d_rate):
    factors = []
    if rng.random() < 0.6:
        factors.append(_c_coeff(rng, params))
    if rng.random() < 0.7:
        factors.append(_c_t(rng, n))
    if rng.random() < d_rate:
        factors.append(_c_d(rng, n, falling, strict))
    if not factors:
        factors.append(_c_coeff(rng, params))
    if rng.random() < 0.1:
        rng.shuffle(factors)
    return "*".join(factors)


def _c_summand(rng, n, params, falling, strict):
    d_rate = 0.97 if strict or rng.random() < 0.6 else 0.85
    kind = rng.random()
    if kind < 0.62:
        text = _c_mono(rng, n, params, falling, strict, d_rate)
    elif kind < 0.67:
        text = _c_coeff(rng, params)
    elif kind < 0.75:
        # brackets are taken in the power basis, where mul is defined
        x = _c_mono(rng, n, params, False, strict, d_rate)
        y = _c_mono(rng, n, params, False, strict, d_rate)
        text = f"[{x}, {y}]"
    elif kind < 0.82:
        x = _c_mono(rng, n, params, falling, strict, d_rate)
        y = _c_mono(rng, n, params, falling, strict, d_rate)
        text = f"({x} - {x})" if rng.random() < 0.5 else f"({x} + {y})"
    elif kind < 0.87:
        x = _c_mono(rng, n, params, False, strict, d_rate)
        text = f"({x})^{rng.choice((0, 2, 2, 2))}"
    elif kind < 0.93:
        text = rng.choice(("C", "2*C", "C", "d/dt", "(d/dt)^2", "zeta"))
    elif kind < 0.95:
        bad = ("t[1,0]*D", "D3", "t^(1)*D1") if n == 1 else ("D", "D3", "t^(1)*D1")
        text = rng.choice(bad)
    else:
        text = f"{_c_coeff(rng, params)}*{_c_mono(rng, n, params, falling, strict, d_rate)}"
    return f"-{text}" if rng.random() < 0.15 else text


def _corpus():
    """(setting, summands, operators) for 2400 random flat sums."""
    rng = random.Random(5)
    out = []
    for _ in range(2400):
        setting = rng.choice(_CORPUS_SETTINGS)
        n, sub, params = setting
        falling = rng.random() < 0.4
        k = rng.randint(2, 5)
        if rng.random() < 0.04:
            summands = [_c_coeff(rng, params) for _ in range(k)]
        else:
            summands = [_c_summand(rng, n, params, falling, sub != "full")
                        for _ in range(k)]
        ops = [rng.choice("+-") for _ in range(k - 1)]
        out.append((setting, summands, ops))
    return out


def _session(setting):
    n, sub, params = setting
    return Session(Weyl(n, ring=Ring(("alpha",)) if params else Ring(), lattice=_sixths(n),
                        subalgebra=sub))


def _joined(summands, ops, nested):
    """The sum written flat, a + b + c, or left-parenthesized, (a + b) + c,
    and the position where each summand starts."""
    text, starts = summands[0], [0]
    for i, (op, summand) in enumerate(zip(ops, summands[1:])):
        if nested and i:
            text = f"({text})"
            starts = [p + 1 for p in starts]
        text += f" {op} "
        starts.append(len(text))
        text += summand
    return text, starts


def _outcome(text, session):
    try:
        return parse_element(text, session)
    except ValueError as exc:
        return exc


def _transcript_line(result) -> str:
    if isinstance(result, Exception):
        return f"error {type(result).__name__}"
    if isinstance(result, Scalar):
        return f"scalar {result}"
    return f"element {result.basis} {format_element(result)}"


def _error_site(pos, summands, starts):
    """(summand index, offset within it) of a text position."""
    for i, (summand, start) in enumerate(zip(summands, starts)):
        if start <= pos < start + len(summand):
            return i, pos - start
    raise AssertionError(f"position {pos} lies outside every summand")


def test_flat_sum_matches_left_parenthesized_sum():
    for setting, summands, ops in _corpus():
        session = _session(setting)
        flat, flat_starts = _joined(summands, ops, False)
        nested, nested_starts = _joined(summands, ops, True)
        a, b = _outcome(flat, session), _outcome(nested, session)
        assert type(a) is type(b), (flat, a, b)
        if isinstance(a, ParseError):
            assert str(a).rsplit(" (at", 1)[0] == str(b).rsplit(" (at", 1)[0], flat
            assert (_error_site(a.position, summands, flat_starts)
                    == _error_site(b.position, summands, nested_starts)), flat
        elif isinstance(a, Exception):
            assert str(a) == str(b), flat
        else:
            assert a == b, flat
            assert getattr(a, "basis", None) == getattr(b, "basis", None), flat


def _pairwise(values, ops, weyl):
    """The left fold of WeylElement + and - over evaluated summands; a run of
    scalar summands stays a scalar, and a scalar joins an element as c * 1."""
    acc = values[0]
    for op, v in zip(ops, values[1:]):
        if isinstance(acc, Scalar) and isinstance(v, Scalar):
            acc = acc + v if op == "+" else acc - v
        else:
            x, y = as_element(acc, weyl), as_element(v, weyl)
            acc = x + y if op == "+" else x - y
    return acc


def test_flat_sum_matches_pairwise_add():
    checked = 0
    for setting, summands, ops in _corpus():
        session = _session(setting)
        values = [_outcome(s, session) for s in summands]
        if any(isinstance(v, Exception) for v in values):
            continue
        flat = _joined(summands, ops, False)[0]
        got = _outcome(flat, session)
        try:
            want = _pairwise(values, ops, session.weyl)
        except ValueError as exc:
            want = exc
        checked += 1
        assert type(got) is type(want), (flat, got, want)
        if not isinstance(got, Exception):
            assert got == want, flat
            assert getattr(got, "basis", None) == getattr(want, "basis", None), flat
    assert checked > 1000


# sha256 of the corpus transcript (values, bases and exception types, not
# messages, which now carry positions), recorded before sums were folded and
# re-recorded twice: when mixing D^m and [D]_j stopped raising (each of the
# 621 lines that changed had read as an error of mixing the two bases), and
# when parser sums took WeylElement.__add__'s basis rule (11 lines changed,
# each an element with no D-terms whose text stayed and whose basis word
# swapped between power and falling).
CORPUS_DIGEST = "8666beea1947fba8e5db399b9738f1b9b34ab039b5ebdc115d61fba3ba786f9b"


def test_corpus_transcript_digest():
    lines = [_transcript_line(_outcome(_joined(summands, ops, False)[0], _session(setting)))
             for setting, summands, ops in _corpus()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CORPUS_DIGEST


@pytest.mark.parametrize("setting,text,expected", (
    # a zero-coefficient summand has no D-terms, so it takes the sum's basis
    ((1, "full", True), "t^(-2)*alpha*[D]_1 - D^2*t^(0)*t^(0)*0",
     "element falling (alpha)*t^(-2)*[D]_1"),
    # a partial sum with no D-terms takes the summand's basis; one with
    # D-terms keeps its own against a summand with none
    ((1, "full", False), "t^(2)*[D]_0 + 7*t^(1)*D^0 - 7*0*t^(-1/3)*[D]_2 + 7",
     "element power 7*1 + 7*t^(1) + t^(2)"),
    ((1, "full", False), "[D^2, D^0] - 2*t^(4)*[D]_0", "element falling -2*t^(4)"),
    ((1, "full", False), "[D]_0 + t^(1)", "element power 1 + t^(1)"),
    # D-terms in two bases give a power-basis sum
    ((1, "full", False), "t^(1)*[D]_2 - t^(1)*D", "element power -2*t^(1)*D + t^(1)*D^2"),
    ((1, "hat", False), "t^(1)*[D]_2 + 2*C - 2*C", "element falling t^(1)*[D]_2"),
    ((1, "w1", False), "t^(1)*[D]_2 + 1", "error SubalgebraError"),
    ((1, "w1", False), "1 + 2 - 3", "scalar 0"),
    # the first summand is checked only after the second is evaluated
    ((1, "w1", False), "t^(1) + zeta", "error UnknownSymbolError"),
    # a partial sum cancelled to no D-terms takes the summand's basis
    ((1, "full", False), "(t^(1)*[D]_2 - t^(1)*[D]_2) + 7*t^(2)", "element power 7*t^(2)"),
))
def test_sum_fold_cases(setting, text, expected):
    assert _transcript_line(_outcome(text, _session(setting))) == expected


# Each of these once raised for mixing D^m and [D]_j.  [D]_j is notation for
# an element of the same algebra, so every flavour evaluates it to the value
# of the same text with each [D]_j written in powers.
@pytest.mark.parametrize("sub", ("w1", "full", "hat"))
@pytest.mark.parametrize("text,power_text,expected", (
    ("[t^(1)*[D]_2, t^(-1)*D]", "[t^(1)*D^2 - t^(1)*D, t^(-1)*D]", "3*D - 3*D^2"),
    ("t^(1)*[D]_2 + t^(1)*D", "t^(1)*D^2 - t^(1)*D + t^(1)*D", "t^(1)*D^2"),
    ("[D]_1*[D]_1", "D*D", "D^2"),
    ("t^(1)*D*[D]_2", "t^(1)*D*(D^2 - D)", "-t^(1)*D^2 + t^(1)*D^3"),
    ("([D]_2)^2", "(D^2 - D)^2", "D^2 - 2*D^3 + D^4"),
))
def test_mixed_bases_evaluate_as_their_power_form(sub, text, power_text, expected, capsys):
    assert main(["eval", text, "--subalgebra", sub]) == 0
    assert capsys.readouterr().out.strip() == expected
    session = _session((1, sub, False))
    assert parse_element(text, session) == parse_element(power_text, session)


@pytest.mark.parametrize("setting,text,position", (
    ((1, "full", False), "t^(1)*D*[D]_2 - [2, D]", 16),
    ((1, "full", False), "[D]_1*[D]_1*t[1,0]", 12),
    ((1, "full", False), "D + [2, D]", 4),
    ((1, "full", False), "D*t[1,0]", 2),
    ((2, "full", False), "D1 + t^(1)*D2", 5),
    ((2, "full", False), "D1*t[1,1/0]", 7),
    ((1, "full", False), "t^(1/0)*D", 3),
    ((1, "full", False), "D - 1/0", 4),
    ((1, "full", False), "D )", 2),
    ((1, "full", False), "(D", 2),
    ((1, "full", False), "D^-1", 2),
    ((1, "full", False), "[D3]_2", 0),
    ((1, "full", False), "D # 1", 2),
))
def test_evaluation_errors_carry_their_position(setting, text, position):
    # before, the first four and the fifth reported position 0, and a zero
    # denominator raised a bare ZeroDivisionError
    with pytest.raises(ParseError) as err:
        parse_element(text, _session(setting))
    assert err.value.position == position


def _stored_coefficients(value):
    """Every stored Fraction of a Scalar, or of an element's coefficients."""
    if isinstance(value, Scalar):
        return list(value.terms.values())
    return [q for c in [*value.terms.values(), value.central] for q in c.terms.values()]


@pytest.mark.parametrize("text, expected", (
    ("0", lambda ring, w: ring.zero),
    ("0*alpha", lambda ring, w: ring.zero),
    ("alpha - alpha", lambda ring, w: ring.zero),
    ("0*t^(1)*D + D", lambda ring, w: w.monomial((0,), (1,))),
    ("3/6*D", lambda ring, w: w.monomial((0,), (1,), Fraction(1, 2))),
    ("-0*D + 0", lambda ring, w: w.zero()),
    ("2/4", lambda ring, w: ring.const(Fraction(1, 2))),
), ids=lambda v: v if isinstance(v, str) else "")
def test_numeric_leaves_evaluate_to_canonical_values(text, expected):
    ring = Ring(("alpha",))
    w = Weyl(1, ring=ring)
    got = parse_element(text, Session(w))
    want = expected(ring, w)
    assert type(got) is type(want) and got == want
    assert got.terms == want.terms
    assert all(q != 0 for q in _stored_coefficients(got))
    assert all(isinstance(q, Fraction) for q in _stored_coefficients(got))


def test_parsing_leaves_the_ring_symbols_unchanged():
    ring = Ring(("alpha", "beta"))
    session = Session(Weyl(1, ring=ring))
    for text in ("alpha + 1", "2*alpha", "alpha*D + alpha*D", "-alpha", "alpha^3",
                 "(alpha - alpha)*t^(1)*D", "alpha*t^(1)*D + 2*alpha*t^(1)*D"):
        parse_element(text, session)
    assert ring.sym("alpha") == Scalar(ring, {(1, 0): 1})
    assert ring.sym("beta") == Scalar(ring, {(0, 1): 1})
    assert parse_element("alpha + 1", session) == Scalar(ring, {(1, 0): 1, (0, 0): 1})


BIG = 10 ** 4300  # 4301 digits, past CPython's default int <-> str limit of 4300


@pytest.mark.parametrize("build", (
    lambda w: w.monomial((1,), (1,), 3 ** 9100),
    lambda w: w.monomial((1,), (1,), Fraction(-BIG, 7)),
    lambda w: w.monomial((Fraction(1, BIG),), (1,)),
    lambda w: w.monomial((BIG,), (1,)),
), ids=("3^9100", "-BIG/7", "grade-1/BIG", "grade-BIG"))
def test_numbers_of_any_length_round_trip(build):
    # before, str() and int() raised ValueError past 4300 digits, so the
    # element neither printed nor parsed
    w = Weyl(1, lattice=Lattice([(Fraction(1, BIG),)]), subalgebra="full")
    x = build(w)
    text = format_element(x)
    assert repr(x) == f"<{text}>"
    back = parse_element(text, Session(w))
    assert back == x and format_element(back) == text


def test_eval_prints_3_to_the_9100(capsys):
    # before, it exited 2: "Exceeds the limit (4300 digits) for integer string conversion"
    assert main(["eval", "3^9100"]) == 0
    text = capsys.readouterr().out.strip()
    assert len(text) == 4342 and text == str(Ring().const(3 ** 9100))
    assert parse_element(text, S) == 3 ** 9100


def test_a_grade_outside_gamma_of_any_length_names_the_grade():
    with pytest.raises(ValueError, match=r"grade \(1/1000000000000000000000000"):
        parse_element("t^(1/1" + "0" * 4300 + ")*D", S1)

