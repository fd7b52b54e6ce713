"""Expression grammar, printing round-trips, and the command-line surface."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsq.algebra import Observable, make_pihat, make_qhat, make_rhat, sym_mul
from nsq.cli import main
from nsq.errors import EngineError, IndexRangeError, ParseError
from nsq.parsing import MAX_DEPTH, parse_observable, print_observable
from nsq.poisson import bracket
from nsq.suites import SUITES, random_full_monomial, run_suite


def test_parse_examples():
    n = 2
    obs = parse_observable("qh(1,1)*pih(2)", n)
    assert obs == sym_mul(make_qhat(n, 1, 1), make_pihat(n, 2))

    obs = parse_observable("3/2 qh(1,1) + rh(1)", n)
    assert obs == make_qhat(n, 1, 1).scale(Fraction(3, 2)) + make_rhat(n, 1)

    with pytest.raises(IndexRangeError):
        parse_observable("qh(3,1)", 2)


# every refusal of the parser: (text at n=2, error type, exact message)
PARSE_ERRORS = [
    ("qh(1,1) $ pih(2)", ParseError, "unexpected character '$' (at offset 8)"),
    ("qh(1,1) +", ParseError, "unexpected end of input (at offset 9)"),
    ("qh(1,1", ParseError, "unexpected end of input (at offset 6)"),
    ("qh(1 1)", ParseError, "expected ',', found '1' (at offset 5)"),
    ("rh(1,2)", ParseError, "expected ')', found ',' (at offset 4)"),
    ("qh(,1)", ParseError, "expected an index, found ',' (at offset 3)"),
    ("qh(1,1) + + pih(2)", ParseError, "expected a generator or '(', found '+' (at offset 10)"),
    ("qh(1,1)*)", ParseError, "expected a generator or '(', found ')' (at offset 8)"),
    ("3/0 qh(1,1)", ParseError, "expected positive integer denominator (at offset 2)"),
    ("3/ qh(1,1)", ParseError, "expected positive integer denominator (at offset 3)"),
    ("qh(1,1) pih(2)", ParseError, "unexpected trailing 'pih' (at offset 8)"),   # missing '*'
    ("qh(1,1))", ParseError, "unexpected trailing ')' (at offset 7)"),
    ("", ParseError, "empty expression (at offset 0)"),
    ("   ", ParseError, "empty expression (at offset 0)"),
    ("(" * (MAX_DEPTH + 1) + "qh(1,1)" + ")" * (MAX_DEPTH + 1), ParseError,
     f"parentheses nested deeper than {MAX_DEPTH} (at offset {MAX_DEPTH})"),
    ("qh(3,1)", IndexRangeError, "index 3 out of range 1..2 (at offset 3)"),
    ("pih(1) - 2 rh(0)", IndexRangeError, "index 0 out of range 1..2 (at offset 14)"),
]


def test_parse_errors_have_offsets():
    for src, error, message in PARSE_ERRORS:
        with pytest.raises(error) as err:
            parse_observable(src, 2)
        assert type(err.value) is error and str(err.value) == message, src


def test_printed_forms_outside_the_grammar_are_refused():
    # the print -> parse identity holds on the full bundle with rational
    # coefficients only: a slice prints its own names, a symbol its own letters
    from nsq.scalars import IHBAR, Scalar

    on_slice = Observable(2, {(("pi", 2), ("q", 1, 2)): 1}, slot=2)
    symbolic = make_qhat(2, 1, 1).scale(Scalar.symbol(IHBAR) + 1)
    for obs, text, message in [
        (on_slice, "Pih(2)*Qh(1)", "unexpected character 'P' (at offset 0)"),
        (symbolic, "(1 + ih) qh(1,1)", "unexpected character 'i' (at offset 5)"),
    ]:
        assert print_observable(obs) == text
        with pytest.raises(ParseError) as err:
            parse_observable(text, 2)
        assert str(err.value) == message


def test_parse_parenthesized_sums():
    n = 2
    obs = parse_observable("(qh(1,1) + rh(1))*pih(2)", n)
    expected = sym_mul(make_qhat(n, 1, 1) + make_rhat(n, 1), make_pihat(n, 2))
    assert obs == expected

    neg = parse_observable("-2 qh(1,1) - rh(2)", n)
    assert neg == make_qhat(n, 1, 1).scale(-2) - make_rhat(n, 2)


def _generator(draw, n):
    """(text, observable) of one generator at dimension n."""
    kind = draw(st.sampled_from(["qh", "pih", "rh"]))
    i = draw(st.integers(1, n))
    if kind == "qh":
        j = draw(st.integers(1, n))
        return f"qh({i},{j})", make_qhat(n, i, j)
    return f"{kind}({i})", (make_pihat if kind == "pih" else make_rhat)(n, i)


def _expression(draw, n, depth, leaves):
    """(text, observable) of a signed sum of terms; leaves[0] is the soft budget of generators left."""
    texts, total = [], Observable.zero(n)
    for t in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["+", "-"] if t else ["", "+", "-"]))
        num = draw(st.none() | st.integers(0, 12))
        den = None if num is None else draw(st.none() | st.integers(1, 6))
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            if depth and leaves[0] > 1 and draw(st.booleans()):
                text, obs = _expression(draw, n, depth - 1, leaves)
                factors.append((f"({text})", obs))
            else:
                leaves[0] -= 1
                factors.append(_generator(draw, n))
            if leaves[0] <= 0:
                break
        term = factors[0][1]
        for _, obs in factors[1:]:
            term = sym_mul(term, obs)
        text = "*".join(text for text, _ in factors)
        if num is not None:
            term = term.scale(Fraction(num, den or 1))
            text = f"{num}/{den} {text}" if den else f"{num} {text}"
        if sign == "-":
            term = term.scale(-1)
        texts.append(f"{sign} {text}" if sign else text)
        total = total + term
        if leaves[0] <= 0:
            break
    return " ".join(texts), total


@st.composite
def expressions(draw):
    """(n, text, observable): a random expression tree at n in 1..3, its
    parentheses at most 4 deep, rendered as text and built with +, scale and
    sym_mul."""
    n = draw(st.integers(1, 3))
    text, obs = _expression(draw, n, 4, [draw(st.integers(1, 12))])
    return n, text, obs


@settings(max_examples=150, deadline=None)
@given(expressions())
def test_parse_builds_the_tree_it_reads(case):
    n, text, expected = case
    assert parse_observable(text, n) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.randoms(use_true_random=False))
def test_print_then_parse_is_the_identity_on_the_full_bundle(n, rng):
    obs = Observable.zero(n)
    for _ in range(rng.randint(1, 4)):
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        obs = obs + random_full_monomial(n, rng).scale(coeff)
    assert parse_observable(print_observable(obs), n) == obs


def test_roundtrip_random():
    rng = random.Random(41)
    for n in (2, 3):
        for _ in range(25):
            obs = random_full_monomial(n, rng)
            extra = random_full_monomial(n, rng)
            combo = obs.scale(rng.choice([1, -1, 2])) + extra
            text = print_observable(combo)
            assert parse_observable(text, n) == combo


def test_roundtrip_bracket_outputs():
    n = 2
    f = parse_observable("qh(1,1)*qh(1,1)", n)
    g = parse_observable("pih(1)*pih(1)", n)
    out = bracket(f, g)
    assert parse_observable(print_observable(out), n) == out


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_roundtrip_bracket_outputs_n3(rng):
    n = 3
    out = bracket(random_full_monomial(n, rng), random_full_monomial(n, rng))
    assert parse_observable(print_observable(out), n) == out


def test_cli_bracket(capsys):
    code = main(["bracket", "-n", "2", "qh(1,1)", "pih(1)"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "rh(1)"


def test_cli_quantize(capsys):
    code = main(["quantize", "--map", "q1", "-n", "2", "pih(2)"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "-i*hbar d/dq2"


def test_cli_hamvf(capsys):
    code = main(["hamvf", "-n", "2", "pih(1)"])
    captured = capsys.readouterr()
    assert code == 0
    assert "d/dq1" in captured.out

    code = main(["hamvf", "--gauge-b1", "-n", "2", "qh(1,1)*pih(2)"])
    assert code == 0


def test_cli_reduce(capsys):
    code = main(["reduce", "-n", "2", "qh(1,1)"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "Qh(1)"

    code = main(["reduce", "-n", "3", "qh(1,1)*pih(2) - 1/2 rh(1)*pih(1)*pih(3)"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "-1/2 Pih(1)*Pih(3)*rh + Pih(2)*Qh(1)"

    code = main(["reduce", "-n", "3", "qh(2,1)*qh(3,1)*pih(3) + 3/2 pih(2)*pih(2)*rh(1)"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "3/2 Pih(2)*Pih(2)*rh + Pih(3)*Qh(2)*Qh(3)"


def test_cli_verify_json_schema(capsys):
    code = main(["verify", "-n", "2", "--suite", "table1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert set(payload) >= {
        "suite",
        "n",
        "seed",
        "cases",
        "passed",
        "failed",
        "failures",
        "millis",
    }
    assert payload["suite"] == "table1"
    assert payload["failed"] == 0
    assert payload["passed"] == payload["cases"]


def test_cli_verify_determinism(capsys):
    main(["verify", "--suite", "jacobi", "--seed", "5", "--format", "json"])
    first = json.loads(capsys.readouterr().out)
    main(["verify", "--suite", "jacobi", "--seed", "5", "--format", "json"])
    second = json.loads(capsys.readouterr().out)
    first.pop("millis")
    second.pop("millis")
    assert first == second


def test_cli_exit_codes(capsys):
    assert main(["verify", "--suite", "no-such-suite"]) == 2
    capsys.readouterr()
    assert main(["bracket", "-n", "2", "qh(1,1)", "qh(3,1)"]) == 2
    capsys.readouterr()
    assert main(["bracket", "-n", "2", "qh(1,1)(", "pih(1)"]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_rejects_nonpositive_dimension(capsys):
    assert main(["verify", "-n", "0", "--suite", "table1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dimension must be a positive integer, got 0" in captured.err
    assert main(["reduce", "-n", "0", "qh(1,1)"]) == 2
    captured = capsys.readouterr()
    assert "dimension must be a positive integer, got 0" in captured.err
    assert "out of range" not in captured.err


def test_cli_verify_only_flags_are_usage_errors_elsewhere(capsys):
    calls = [
        ["bracket", "--format", "json", "-n", "2", "qh(1,1)", "pih(1)"],
        ["bracket", "--seed", "3", "-n", "2", "qh(1,1)", "pih(1)"],
        ["hamvf", "--format", "json", "pih(1)"],
        ["quantize", "--seed", "3", "--map", "q1", "pih(1)"],
        ["reduce", "--format", "text", "qh(1,1)"],
        ["reduce", "--gauge-seed", "5", "qh(1,1)"],
    ]
    for argv in calls:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


def test_cli_verify_gauge_seed(capsys):
    assert main(["verify", "--suite", "eq14", "--gauge-seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "failed=0" in out


def test_cli_verify_failure_exit_code(capsys, monkeypatch):
    from nsq.reports import VerificationReport
    from nsq.suites import SUITES

    def failing_suite(n=2, seed=7, gauge_seed=None):
        report = VerificationReport("stub-fail", n, seed)
        report.record("forced failure", False, "pass", "fail")
        return report

    monkeypatch.setitem(SUITES, "stub-fail", failing_suite)
    assert main(["verify", "--suite", "stub-fail"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "forced failure" in out


def test_suites_register_under_their_cli_names():
    assert len(SUITES) == 13
    for name in SUITES:
        assert run_suite(name, n=1).suite == name
    with pytest.raises(KeyError):
        run_suite("nope")


def test_cli_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("NSQ_SEED", "5")
    main(["verify", "--suite", "jacobi", "--format", "json"])
    with_env = json.loads(capsys.readouterr().out)
    assert with_env["seed"] == 5
    monkeypatch.setenv("NSQ_SEED", "not-a-number")
    assert main(["verify", "--suite", "jacobi"]) == 2


def test_parenthesis_depth_is_bounded(capsys):
    def nested(depth):
        return "(" * depth + "qh(1,1)" + ")" * depth

    assert parse_observable(nested(MAX_DEPTH), 2) == make_qhat(2, 1, 1)
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} \\(at offset {MAX_DEPTH}\\)"):
        parse_observable(nested(MAX_DEPTH + 1), 2)
    assert main(["bracket", nested(2000), "pih(1)"]) == 2
    assert "nested deeper than" in capsys.readouterr().err


def test_only_ascii_digits_are_digits(capsys):
    # \d would take any Unicode decimal digit, and the printer writes only ASCII ones
    for src in ("qh(\u0661,\u0661)", "\uff12 pih(1)", "pih(1\u0663)"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_observable(src, 2)
        assert main(["reduce", src]) == 2
        assert "unexpected character" in capsys.readouterr().err


@pytest.mark.parametrize("argv, after_dashes", [
    (["reduce", "-qh(1,1)"], ["reduce", "--", "-qh(1,1)"]),
    (["reduce", "-qh(1,1) + pih(1)", "-n", "3"], ["reduce", "-n", "3", "--", "-qh(1,1) + pih(1)"]),
    (["hamvf", "-pih(2)"], ["hamvf", "--", "-pih(2)"]),
    (["quantize", "--map", "q1", "-pih(1)"], ["quantize", "--map", "q1", "--", "-pih(1)"]),
    (["quantize", "-pih(1)*pih(2)", "--map", "q2"], ["quantize", "--map", "q2", "--", "-pih(1)*pih(2)"]),
    (["bracket", "-qh(1,1)", "-pih(1)*qh(2,1)"], ["bracket", "--", "-qh(1,1)", "-pih(1)*qh(2,1)"]),
])
def test_cli_reads_an_expr_that_starts_with_minus(argv, after_dashes, capsys):
    assert main(after_dashes) == 0
    expected = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == expected != ""


# the grammar's alphabet in single characters and whole tokens, long digit
# runs and characters outside ASCII (some of them Unicode digits and spaces)
front_end_chunks = st.one_of(
    st.sampled_from(list("qhpir()+-*/,0123456789 ") + ["qh(", "pih(", "rh(", "1,", "1)", "2)", "1/2 "]),
    st.text("0123456789", min_size=10, max_size=60),
    st.characters(min_codepoint=128, max_codepoint=0x10FFFF),
    st.sampled_from(["\u0663", "\uff11", "\u00a0", "\u2003", "\u00e9"]),
)


def _sums(inner):
    term = st.tuples(st.sampled_from(["", "2 ", "-1/3 ", "0 "]), st.lists(inner, min_size=1, max_size=3))
    terms = st.lists(term.map(lambda t: t[0] + "*".join(t[1])), min_size=1, max_size=3)
    return terms.map(lambda parts: "(" + " + ".join(parts) + ")")


# well-formed expressions, so that the fuzz also reaches the evaluator
expressions = st.recursive(
    st.sampled_from(["qh(1,1)", "qh(2,1)", "qh(1,2)", "pih(1)", "pih(2)", "rh(1)", "rh(2)"]), _sums, max_leaves=8
)


@st.composite
def front_end_inputs(draw):
    """A chunk soup, or a well-formed expression with a few chunks spliced in."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(front_end_chunks, max_size=60)))
    src = draw(expressions)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(src)))
        src = src[:at] + draw(front_end_chunks) + src[at:]
    return src


@settings(max_examples=300, deadline=None)
@given(front_end_inputs().filter(lambda s: len(s) <= 300))
def test_front_end_fuzz(src):
    try:
        obs = parse_observable(src, 2)
    except EngineError:
        pass
    else:
        assert isinstance(obs, Observable)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["reduce", src])
    assert code in (0, 2)
    if any(c.isdigit() and not c.isascii() for c in src):
        assert code == 2


def test_cli_imports_the_suites_only_to_verify():
    # nsq.suites and nsq.basic_sets load with the verify branch, not with nsq.cli
    code = (
        "import sys, contextlib, io\n"
        "from nsq.cli import main\n"
        "loaded = lambda: sorted({'nsq.suites', 'nsq.basic_sets'} & set(sys.modules))\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    for argv in (['bracket', 'qh(1,1)', 'pih(1)'], ['hamvf', 'pih(1)'], ['quantize', '--map', 'q2', 'pih(1)*qh(1,1)'], ['reduce', 'qh(1,1)']):\n"
        "        assert main(argv) == 0, argv\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert main(['verify', '--suite', 'eq13']) == 0\n"
        "print(loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines() == ["[]", "['nsq.basic_sets', 'nsq.suites']"]
