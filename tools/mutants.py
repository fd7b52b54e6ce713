"""Mutation check: every mutant of the engine must be killed by its named tests.

    python3 tools/mutants.py
    python3 tools/mutants.py --shard 1/2

``--shard i/k`` runs only the i-th of k parts of the list, so k
processes, e.g. parallel CI jobs, run each mutant once between them.  The
parts are balanced on the seconds each mutant took in one full run
(``SECONDS``): longest first, each mutant goes to the part with the least
time so far.  Every run prints each mutant's seconds, from which the table
is refreshed; a mutant missing from it counts as the median.

A mutant is a list of exact source replacements under ``src/nsq``, each
of whose anchors must occur exactly once, and the tests that must kill it.
For each mutant the script copies ``src`` and ``tests`` into a temporary
directory, applies the replacements there and runs pytest on the named
tests with ``--hypothesis-seed=0``, so that whether a hypothesis test
kills a mutant does not depend on the run; the mutant is killed when
pytest reports a test failure (exit code 1).  The named tests are first run once on an unmutated copy, where they
must pass.  A surviving mutant, an anchor that is missing or not unique,
and any other pytest outcome (a collection error, no tests collected) are
errors, and the script then exits with code 1.  The repository itself is
never edited.  Needs only the standard library, pytest and hypothesis.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KILLED = 1  # pytest: tests were collected and run, and some failed

QUANT = "tests/test_quantization.py"
KERNELS = "tests/test_kernels.py"
LAWS = "tests/test_scalars_polynomials.py"
WEYL = "tests/test_symplectic_ref.py"
CLI = "tests/test_parsing_cli.py"
GOLDEN = "tests/test_verify_golden.py"
ALGEBRA = "tests/test_algebra.py"
FORMS = "tests/test_forms.py"
SUBBUNDLE = "tests/test_subbundle.py"
DEEP = "tests/test_deep_consistency.py"


@dataclass
class Mutant:
    name: str
    edits: list  # (path under src/nsq, anchor, replacement)
    tests: list  # pytest node ids


def keyed_without(decorator: str, name: str, params: str, key: str) -> tuple[str, str]:
    """(anchor, replacement) that memoizes function ``name`` on ``key`` only.

    The memo keeps the first value computed for each key, so callers that
    differ only in the dropped arguments share it, and it keeps
    ``cache_clear`` so tests that empty the memos still run.
    """
    memo = f"_MUTANT_{name.upper()}"
    replacement = (
        f"{memo} = {{}}\n\n\n"
        f"def {name}({params}):\n"
        f"    if {key} not in {memo}:\n"
        f"        {memo}[{key}] = {name}_fresh({params})\n"
        f"    return {memo}[{key}]\n\n\n"
        f"{name}.cache_clear = {memo}.clear\n\n\n"
        f"def {name}_fresh("
    )
    return f"{decorator}\ndef {name}(", replacement


MUTANTS = [
    # -- the packed operator kernel and the image memo (quantization) --
    Mutant(
        "leibniz weight without comb",
        [("quantization.py", "weight *= comb(d, g) * perm(pw, g)", "weight *= perm(pw, g)")],
        [f"{QUANT}::test_leibniz_memo_matches_poly_diff", f"{QUANT}::test_op_compose_matches_leibniz_reference"],
    ),
    Mutant(
        "leibniz falling factorial set to 1",
        [("quantization.py", "weight *= comb(d, g) * perm(pw, g)", "weight *= comb(d, g)")],
        [f"{QUANT}::test_leibniz_memo_matches_poly_diff", f"{QUANT}::test_op_compose_matches_leibniz_reference"],
    ),
    Mutant(
        "leibniz memo keyed on the q powers without the degree",
        [("quantization.py", *keyed_without("@lru_cache(maxsize=4096)", "_leibniz", "n, alpha, qpow", "(n, qpow)"))],
        [f"{QUANT}::test_leibniz_memo_matches_poly_diff", f"{QUANT}::test_op_compose_matches_leibniz_reference"],
    ),
    Mutant(
        "leibniz memo keyed on the degree without the q powers",
        [("quantization.py", *keyed_without("@lru_cache(maxsize=4096)", "_leibniz", "n, alpha, qpow", "(n, alpha)"))],
        [f"{QUANT}::test_leibniz_memo_matches_poly_diff", f"{QUANT}::test_op_compose_matches_leibniz_reference"],
    ),
    Mutant(
        "composition drops the right operand's denominator",
        [(
            "quantization.py",
            "    _compose_into(acc, a._nums, b._nums, a.n, 1)\n    return DiffOperator._of(a.n, *_normal(acc, a._den * b._den), top)",
            "    _compose_into(acc, a._nums, b._nums, a.n, 1)\n    return DiffOperator._of(a.n, *_normal(acc, a._den), top)",
        )],
        [f"{QUANT}::test_op_compose_matches_leibniz_reference"],
    ),
    Mutant(
        "commutator adds b o a instead of subtracting it",
        [("quantization.py", "_compose_into(acc, b._nums, a._nums, a.n, -1, 1)", "_compose_into(acc, b._nums, a._nums, a.n, 1, 1)")],
        [f"{QUANT}::test_commutator_of_d_cubed_and_q_cubed", f"{QUANT}::test_commutator_matches_leibniz_reference"],
    ),
    Mutant(
        "the commutator skips the leading term in one order only",
        [("quantization.py", "_compose_into(acc, b._nums, a._nums, a.n, -1, 1)", "_compose_into(acc, b._nums, a._nums, a.n, -1)")],
        [f"{QUANT}::test_commutator_of_d_cubed_and_q_cubed", f"{QUANT}::test_commutator_of_leading_only_terms_is_zero"],
    ),
    Mutant(
        "image memo keyed without the map instance (module-level)",
        [("quantization.py", "        memo = self._images\n", '        memo = globals().setdefault("_SHARED_IMAGES", {})\n')],
        [f"{QUANT}::test_memoized_images_equal_fresh_ones", f"{QUANT}::test_a_corrupted_map_never_sees_a_clean_maps_images"],
    ),
    Mutant(
        "quantize skips the scale for every coefficient",
        [("quantization.py", "            if coeff is not ONE:\n                image = image.scale(coeff)\n", "")],
        [f"{QUANT}::test_quantize_scales_every_coefficient_but_one"],
    ),
    Mutant(
        "adjoint drops IHBAR's sign flip",
        [("quantization.py", " + ((key // ih) & _FIELD_MASK)", "")],
        [f"{QUANT}::test_formal_adjoint", f"{QUANT}::test_formal_adjoint_matches_the_view_reference"],
    ),
    Mutant(
        "adjoint drops (-1)^|alpha|",
        [("quantization.py", "flips = sum((alpha // du) & _FIELD_MASK for du, _ in units) + ", "flips = ")],
        [f"{QUANT}::test_formal_adjoint", f"{QUANT}::test_formal_adjoint_matches_the_view_reference"],
    ),
    Mutant(
        "adjoint composes c o d^alpha in place of d^alpha o c",
        [(
            "quantization.py",
            "_compose_into(acc, {alpha: (-1) ** flips}, {key - alpha: v}, a.n, 1)",
            "_compose_into(acc, {key - alpha: v}, {alpha: (-1) ** flips}, a.n, 1)",
        )],
        [f"{QUANT}::test_formal_adjoint_matches_the_view_reference", f"{DEEP}::test_adjoint_is_anti_homomorphism"],
    ),
    # -- Weyl ordering: the closed form and the word-walk oracle (symplectic_ref) --
    Mutant(
        "closed form with +i*hbar/2 in place of -i*hbar/2",
        [("symplectic_ref.py", "((-1) ** k * factorial(j)", "((-1) ** (k - j) * factorial(j)")],
        [f"{WEYL}::test_weyl_matches_brute_force", f"{WEYL}::test_weyl_closed_form_matches_prefix_oracle"],
    ),
    Mutant(
        "closed form without j!",
        [("symplectic_ref.py", "(-1) ** k * factorial(j) * comb(m, j)", "(-1) ** k * comb(m, j)")],
        [f"{WEYL}::test_weyl_matches_brute_force", f"{WEYL}::test_weyl_closed_form_matches_prefix_oracle"],
    ),
    Mutant(
        "the walk goes down from a stale prefix: the parent's product in place of the child's",
        [("symplectic_ref.py", "extend(child, left - 1)", "extend(node, left - 1)")],
        [f"{WEYL}::test_prefix_oracle_matches_word_average_at_n2", f"{WEYL}::test_prefix_oracle_matches_word_average"],
    ),
    Mutant(
        "the walk does not restore a letter's count",
        [("symplectic_ref.py", "                letter[0] = count\n", "")],
        [f"{WEYL}::test_weyl_matches_brute_force", f"{WEYL}::test_prefix_oracle_matches_word_average_at_n2"],
    ),
    Mutant(
        "average over degree! instead of the distinct words",
        [("symplectic_ref.py", "*_normal(total, words)", "*_normal(total, factorial(sum(count for count, _ in letters)))")],
        [f"{WEYL}::test_weyl_matches_brute_force", f"{WEYL}::test_prefix_oracle_matches_word_average_at_n2"],
    ),
    Mutant(
        "mode table keyed without n",
        [("symplectic_ref.py", *keyed_without("@lru_cache(maxsize=1024, typed=True)", "_mode_image", "n, mode, m, k", "(mode, m, k)"))],
        [f"{WEYL}::test_mode_tables_are_keyed_on_the_dimension", f"{WEYL}::test_weyl_tables_match_the_enumeration_and_the_oracle"],
    ),
    Mutant(
        "mode table serves a float power the table of its int",
        [("symplectic_ref.py", "@lru_cache(maxsize=1024, typed=True)", "@lru_cache(maxsize=1024)")],
        [f"{WEYL}::test_weyl_memo_refuses_an_inexact_monomial_after_its_int_version", f"{WEYL}::test_weyl_memo_matches_the_enumeration_and_the_oracle"],
    ),
    Mutant(
        "Weyl image memo keyed without n",
        [
            ("symplectic_ref.py", "image = memo.get((mono, n)) if exact else None", "image = memo.get(mono) if exact else None"),
            ("symplectic_ref.py", "memo[mono, n] = image", "memo[mono] = image"),
        ],
        [f"{WEYL}::test_weyl_images_are_keyed_on_the_dimension", f"{WEYL}::test_weyl_memo_matches_the_enumeration_and_the_oracle"],
    ),
    Mutant(
        "Weyl image memo serves an equal monomial whose index or power is not an exact int",
        [("symplectic_ref.py", "image = memo.get((mono, n)) if exact else None", "image = memo.get((mono, n))")],
        [f"{WEYL}::test_weyl_memo_refuses_an_inexact_monomial_after_its_int_version", f"{WEYL}::test_weyl_memo_matches_the_enumeration_and_the_oracle"],
    ),
    Mutant(
        "the oracle bounds a monomial's powers by its degree",
        [(
            "symplectic_ref.py",
            "        top = _operator_top(modes)\n        words = _word_count(modes)\n",
            "        top = DiffOperator._checked(sum(m + k for _, m, k in modes))\n        words = _word_count(modes)\n",
        )],
        [f"{WEYL}::test_brute_oracle_at_the_power_bound", f"{WEYL}::test_word_budget_refuses_before_any_work"],
    ),
    Mutant(
        "a mode's numerators not reduced before the product",
        [("symplectic_ref.py", "    return _normal(terms, 1 << min(m, k))\n", "    return terms, 1 << min(m, k)\n")],
        [f"{WEYL}::test_weyl_tables_match_the_enumeration_and_the_oracle", f"{WEYL}::test_weyl_matches_brute_force"],
    ),
    # -- the packed layout and the shared linear structure (packed) --
    Mutant(
        "packed field one bit narrower than the bound",
        [("packed.py", "FIELD_BITS = POWER_BOUND.bit_length()\n", "FIELD_BITS = POWER_BOUND.bit_length() - 1\n")],
        [f"{QUANT}::test_operator_powers_at_the_field_bound", f"{KERNELS}::test_packed_monomials_round_trip_at_the_power_bound"],
    ),
    Mutant(
        "IHBAR field dropped from the packed key",
        [(
            "packed.py",
            "    return 1 << (FIELD_BITS * (n + n * n + k))\n",
            '    return 0 if name == "ih" else 1 << (FIELD_BITS * (n + n * n + k))\n',
        )],
        [f"{QUANT}::test_lazy_views_equal_eager_operators", f"{WEYL}::test_weyl_numerators_match_the_poly_closed_form"],
    ),
    Mutant(
        "the shared + skips the space check",
        [("packed.py", "        self._require_same(other)\n        if not other._nums:\n", "        if not other._nums:\n")],
        [f"{QUANT}::test_operators_refuse_other_dimensions", f"{FORMS}::test_field_operations_refuse_other_dimensions"],
    ),
    # -- the monomial records (forms) --
    Mutant(
        "record memo keyed without the slot",
        [("forms.py", *keyed_without("@lru_cache(maxsize=1024)", "_monomial_record", "mono, n, slot", "(mono, n)"))],
        [
            f"{KERNELS}::test_memo_key_separates_slice_and_full",
            f"{KERNELS}::test_integer_memos_equal_poly_memos_times_denominators",
            f"{KERNELS}::test_operand_records_are_keyed_by_dimension_and_slot",
        ],
    ),
    Mutant(
        "record memo keyed without the dimension",
        [("forms.py", *keyed_without("@lru_cache(maxsize=1024)", "_monomial_record", "mono, n, slot", "(mono, slot)"))],
        [f"{KERNELS}::test_operand_records_are_keyed_by_dimension_and_slot"],
    ),
    Mutant(
        "partials read only the lowest bit of a variable's field",
        [("forms.py", "        if seen & unit * _FIELD_MASK:\n", "        if seen & unit:\n")],
        [
            f"{KERNELS}::test_packed_tables_unpack_to_tuple_numerators",
            f"{KERNELS}::test_route1_matches_split_enumeration",
        ],
    ),
    Mutant(
        "field table drops the -1 sign of a qhat generator",
        [("forms.py", "var, sign = pivar(tag[2], tag[1]), -1", "var, sign = pivar(tag[2], tag[1]), 1")],
        [f"{KERNELS}::test_integer_builders_equal_poly_path_on_every_small_monomial"],
    ),
    Mutant(
        "the field weight drops the factor's multiplicity",
        [("forms.py", "field[var, key] = sign * count * c", "field[var, key] = sign * c")],
        [
            f"{KERNELS}::test_integer_builders_equal_poly_path_on_every_small_monomial",
            f"{KERNELS}::test_monomial_record_equals_the_separate_builders",
        ],
    ),
    Mutant(
        "the q-index keeps qhat(i,j) in the rest in place of rhat(j)",
        [("forms.py", "tuple(sorted(rest + (rtag(tag[2]),)))", "tuple(sorted(rest + (tag,)))")],
        [f"{KERNELS}::test_generator_join_equals_pairwise_enumeration", f"{KERNELS}::test_monomial_record_equals_the_separate_builders"],
    ),
    # -- the integer forms layer (forms) --
    Mutant(
        "ham_vf treats every coefficient as 1",
        [("forms.py", "        cnums, cden, ctop = _scalar_numerators(coeff, n)\n        top = ", "        cnums, cden, ctop = _UNIT_NUMERATORS\n        top = ")],
        [f"{KERNELS}::test_memoized_field_equals_factor_rule"],
    ),
    Mutant(
        "packed Lie bracket adds the second term instead of subtracting it",
        [("forms.py", "_field_partials(x._nums, n), scale, n, -1)", "_field_partials(x._nums, n), scale, n, 1)")],
        [f"{KERNELS}::test_vf_bracket_matches_split_enumeration", f"{KERNELS}::test_integer_field_operations_match_the_poly_oracle"],
    ),
    Mutant(
        "integer vf_bracket weighs by 1/comb without split_count",
        [("forms.py", "weight = scale // comb(p + q, p) * (weights.get((I, J)) or _split_count(I, J))", "weight = scale // comb(p + q, p)")],
        [f"{KERNELS}::test_vf_bracket_matches_split_enumeration", f"{KERNELS}::test_integer_field_operations_match_the_poly_oracle"],
    ),
    Mutant(
        "a field's symbol shift lands in the index fields",
        [("forms.py", "        shift <<= FIELD_BITS * n  # a symbol monomial sits above the index fields\n", "")],
        [f"{KERNELS}::test_integer_field_operations_match_the_poly_oracle"],
    ),
    Mutant(
        "HamVF skips the index range check",
        [("forms.py", "accumulate(view, canonicalize(I, n), vf)", "accumulate(view, tuple(sorted(I)), vf)")],
        [f"{FORMS}::test_grade_indices_are_canonicalized_and_checked"],
    ),
    Mutant(
        "the sweep drops the (p-1)! prefactor",
        [("forms.py", "lhs_scale, rhs_scale = x._den, -factorial(p - 1) * den", "lhs_scale, rhs_scale = x._den, -den")],
        [f"{KERNELS}::test_structure_eq_check_verdicts_match_the_poly_oracle"],
    ),
    Mutant(
        "the zero-class branch is skipped",
        [("forms.py", "        return not sums\n", "        return True\n")],
        [f"{KERNELS}::test_structure_eq_check_verdicts_match_the_poly_oracle"],
    ),
    Mutant(
        "the sweep raises a grade at the power bound unchecked",
        [("forms.py", "        HamVF._checked(max(x.grade_ranks()) + 1)\n", "        pass\n")],
        [f"{KERNELS}::test_field_powers_at_the_power_bound_and_past_it"],
    ),
    Mutant(
        "the contraction count is 1 in place of K.count(a)",
        [("forms.py", "(K >> field & _FIELD_MASK) * signed", "signed")],
        [f"{KERNELS}::test_sweep_verdicts_match_the_two_form_oracle", f"{KERNELS}::test_structure_eq_check_verdicts_match_the_poly_oracle"],
    ),
    # -- the integer bracket kernel (poisson) --
    Mutant(
        "the packed split count is 1",
        [("algebra.py", "        out *= comb(K & _FIELD_MASK, i & _FIELD_MASK)\n", "        out *= 1\n")],
        [f"{KERNELS}::test_route1_matches_split_enumeration", f"{KERNELS}::test_vf_bracket_matches_split_enumeration"],
    ),
    Mutant(
        "route 1's weight read by K in place of (I, J)",
        [
            ("poisson.py", "(weights.get((I, J)) or _split_count(I, J))", "(weights.get(I + J) or _split_count(I, J))"),
            ("algebra.py", "    _SPLIT_COUNTS[I, J] = out\n", "    _SPLIT_COUNTS[I + J] = out\n"),
        ],
        [f"{KERNELS}::test_route1_matches_split_enumeration", f"{KERNELS}::test_flat_tables_and_both_routes_equal_the_tuple_oracle"],
    ),
    Mutant(
        "join drops a repeated factor's multiplicity",
        [("poisson.py", "hits.get(mono, 0) + m * hit[1]", "hits.get(mono, 0) + hit[1]")],
        [f"{KERNELS}::test_generator_join_equals_pairwise_enumeration"],
    ),
    Mutant(
        "pi-in-f hits take sign +1",
        [("poisson.py", "hits.get(mono, 0) - m * hit[1]", "hits.get(mono, 0) + m * hit[1]")],
        [f"{KERNELS}::test_generator_join_equals_pairwise_enumeration"],
    ),
    Mutant(
        "single-hit path taken for count != 1",
        [("poisson.py", "        if c == 1:\n            return _monomial_components(mono, n, slot)\n", "        return _monomial_components(mono, n, slot)\n")],
        [f"{KERNELS}::test_flat_tables_and_both_routes_equal_the_tuple_oracle"],
    ),
    Mutant(
        "route 2 writes into the shared table",
        [(
            "poisson.py",
            "        if c == 1:\n            return _monomial_components(mono, n, slot)\n",
            "        table = _monomial_components(mono, n, slot)\n"
            "        for k in table:\n"
            "            table[k] *= c\n"
            "        return table\n",
        )],
        [f"{KERNELS}::test_operations_leave_cached_maps_unchanged"],
    ),
    Mutant(
        "gauge term's route 1 not checked",
        [("poisson.py", "                if shift:\n", "                if False:\n")],
        [f"{KERNELS}::test_gauge_term_with_nonzero_route1_is_refused"],
    ),
    Mutant(
        "routes compared on the first unit pair only",
        [(
            "poisson.py",
            "            if route1 != route2:\n",
            "            if route1 != route2 and (mf, mg) == (next(iter(f.terms)), next(iter(g.terms))):\n",
        )],
        [f"{KERNELS}::test_route_disagreement_names_the_unit_pair"],
    ),
    Mutant(
        "bracket drops the cf * cg coefficient product",
        [("poisson.py", "base = cg if unit_f else cf * cg", "base = cg")],
        [f"{KERNELS}::test_bracket_is_the_sum_over_unit_pairs"],
    ),
    Mutant(
        "bracket's space check reads the dimension only",
        [("poisson.py", "    if g.n != n or g.slot != slot:\n", "    if g.n != n:\n")],
        [f"{QUANT}::test_bracket_and_dirac_check_refuse_operands_of_two_algebras"],
    ),
    Mutant(
        "power bound read from an operand's first term only",
        [("poisson.py", "    if len(terms) == 1:\n", "    if True:\n")],
        [f"{KERNELS}::test_bracket_refuses_a_multi_term_operand_by_its_highest_degree"],
    ),
    Mutant(
        "gauge seed accepted on a slice",
        [("poisson.py", "    if gauge_seed is not None and slot is not None:\n", "    if False:\n")],
        [f"{KERNELS}::test_slice_bracket_refuses_gauge_seed"],
    ),
    # -- the one expansion and the observable's integer form (algebra) --
    Mutant(
        "component table memo keyed without the slot",
        [(
            "algebra.py",
            *keyed_without("@lru_cache(maxsize=1024)", "_monomial_components", "mono, n, slot", "(mono, n)"),
        )],
        [f"{KERNELS}::test_memo_key_separates_slice_and_full", f"{KERNELS}::test_integer_memos_equal_poly_memos_times_denominators"],
    ),
    Mutant(
        "integer component builder weighs by 1 instead of K.count(j)",
        [("algebra.py", "            weight = key >> field & _FIELD_MASK\n", "            weight = 1\n")],
        [f"{KERNELS}::test_integer_builders_equal_poly_path_on_every_small_monomial"],
    ),
    Mutant(
        "K packed into the wrong index field",
        [("algebra.py", "        field = FIELD_BITS * (j - 1)\n", "        field = FIELD_BITS * (j % n)\n")],
        [
            f"{KERNELS}::test_flat_tables_and_both_routes_equal_the_tuple_oracle",
            f"{KERNELS}::test_integer_builders_equal_poly_path_on_every_small_monomial",
        ],
    ),
    Mutant(
        "a unit monomial's form over (r-1)! instead of r!",
        [(
            "algebra.py",
            "self._form = {len(mono): _monomial_components(mono, n, slot)}, factorial(len(mono))",
            "self._form = {len(mono): _monomial_components(mono, n, slot)}, factorial(len(mono) - 1)",
        )],
        [f"{KERNELS}::test_unit_monomial_shares_memoized_expansion", f"{KERNELS}::test_equality_zero_test_and_ranks_match_a_poly_expansion"],
    ),
    Mutant(
        "a single monomial with a non-unit coefficient shares the unit table",
        [("algebra.py", "if len(self.terms) == 1 and ONE in self.terms.values():", "if len(self.terms) == 1:")],
        [f"{KERNELS}::test_unit_monomial_shares_memoized_expansion", f"{KERNELS}::test_equality_zero_test_and_ranks_match_a_poly_expansion"],
    ),
    Mutant(
        "== compares unscaled forms when the denominators differ",
        [("algebra.py", "_scaled(a, db) == _scaled(b, da)", "a == b")],
        [f"{KERNELS}::test_equality_across_decompositions_and_denominators", f"{KERNELS}::test_equality_zero_test_and_ranks_match_a_poly_expansion"],
    ),
    Mutant(
        "sym_components weighs by 1/comb without split_count",
        [(
            "algebra.py",
            "weight = Fraction(split_count(K, I), comb(len(K), len(I)))",
            "weight = Fraction(1, comb(len(K), len(I)))",
        )],
        [f"{KERNELS}::test_sym_components_matches_split_enumeration"],
    ),
    # -- the suite driver (suites) --
    Mutant(
        "dirac pair loop builds g from m1",
        [("suites.py", "f, g = units[m1], units[m2]", "f, g = units[m1], units[m1]")],
        [f"{QUANT}::test_dirac_failures_carry_the_residual"],
    ),
    Mutant(
        "record_dirac records \"fail\" instead of the residual",
        [("suites.py", "actual=format_operator(residual)", 'actual="fail"')],
        [f"{QUANT}::test_dirac_failures_carry_the_residual"],
    ),
    Mutant(
        "suite decorator stamps one fixed suite name",
        [("suites.py", "_fill_timed(VerificationReport(name,", '_fill_timed(VerificationReport("eq13",')],
        [f"{CLI}::test_suites_register_under_their_cli_names", f"{GOLDEN}::test_verify_report_matches_golden"],
    ),
    # -- the sparse-combination base (scalars) --
    Mutant(
        "accumulate keeps a zero sum",
        [("scalars.py", "    if value:\n        out[key] = value\n    else:\n        out.pop(key, None)\n", "    out[key] = value\n")],
        [
            f"{LAWS}::test_poly_canonical_form_drops_zeros",
            f"{LAWS}::test_scalar_product_matches_general_path",
            f"{LAWS}::test_sparse_combination_laws",
        ],
    ),
    Mutant(
        "Observable._like drops the slot",
        [("algebra.py", "out.terms, out.n, out.slot = terms, self.n, self.slot", "out.terms, out.n = terms, self.n")],
        [f"{SUBBUNDLE}::test_reduction_homomorphism"],
    ),
    Mutant(
        "LinComb.__add__ accumulates into self.terms",
        [("scalars.py", "        out = dict(self.terms)\n", "        out = self.terms\n")],
        [f"{LAWS}::test_shared_units_survive_a_full_verify"],
    ),
    Mutant(
        "LinComb.__bool__ always true",
        [("scalars.py", "        return bool(self.terms)\n", "        return True\n")],
        [f"{LAWS}::test_poly_canonical_form_drops_zeros", f"{LAWS}::test_sparse_combination_laws"],
    ),
    Mutant(
        "Scalar rational fast path taken for a symbol",
        [
            ("scalars.py", "if len(a) == 1 == len(b) and _ONE_MONO in a and _ONE_MONO in b:", "if len(a) == 1 == len(b):"),
            ("scalars.py", "{_ONE_MONO: a[_ONE_MONO] * b[_ONE_MONO]}", "{_ONE_MONO: next(iter(a.values())) * next(iter(b.values()))}"),
        ],
        [f"{LAWS}::test_scalar_product_matches_general_path"],
    ),
    # -- the shared units and the single-term power (scalars, polynomials) --
    Mutant(
        "ONE * s returns ONE",
        [("scalars.py", "        if self is ONE:\n            return other\n", "        if self is ONE:\n            return self\n")],
        [f"{LAWS}::test_unit_products_return_the_other_operand"],
    ),
    Mutant(
        "ONE_POLY * p returns ONE_POLY",
        [(
            "polynomials.py",
            "        if self is ONE_POLY:\n            return other\n",
            "        if self is ONE_POLY:\n            return self\n",
        )],
        [f"{LAWS}::test_unit_products_return_the_other_operand"],
    ),
    Mutant(
        "single-term power scales the exponents by k - 1",
        [("scalars.py", "tuple((v, pw * k) for v, pw in mono)", "tuple((v, pw * (k - 1)) for v, pw in mono)")],
        [f"{LAWS}::test_single_term_power_is_the_repeated_product"],
    ),
    Mutant(
        "single-term power keeps the coefficient unraised",
        [("scalars.py", "for v, pw in mono): c ** k}", "for v, pw in mono): c}")],
        [f"{LAWS}::test_single_term_power_is_the_repeated_product"],
    ),
    # -- the generator-monomial memo (algebra) --
    Mutant(
        "monomial memo keyed without the dimension",
        [
            ("algebra.py", "hit = memo.get((mono, n))", "hit = memo.get(mono)"),
            ("algebra.py", "hit = _SORTED_MONOMIALS.get((mono, n))", "hit = _SORTED_MONOMIALS.get(mono)"),
            ("algebra.py", "_SORTED_MONOMIALS[mono, n] = (mono, out)", "_SORTED_MONOMIALS[mono] = (mono, out)"),
        ],
        [f"{ALGEBRA}::test_memo_keeps_every_refusal", f"{ALGEBRA}::test_constructor_memo_matches_check_and_sort"],
    ),
    Mutant(
        "membership checks the slot only when f has terms",
        [(
            "algebra.py",
            "    if type(slot) is not int or slot != 1:\n        check_index(slot, f.n)\n    for mono in f.terms:\n",
            "    for mono in f.terms:\n        if type(slot) is not int or slot != 1:\n            check_index(slot, f.n)\n",
        )],
        [f"{QUANT}::test_membership_refuses_a_slot_out_of_range"],
    ),
    Mutant(
        "membership skips the check for any slot equal to 1",
        [("algebra.py", "    if type(slot) is not int or slot != 1:\n", "    if slot != 1:\n")],
        [f"{QUANT}::test_membership_refuses_a_slot_out_of_range"],
    ),
    Mutant(
        "monomial memo serves indices that equal an int but are not one",
        [(
            "algebra.py",
            "key = hit[1] if hit is not None and hit[0] is mono else _sorted_monomial(mono, n)",
            "key = hit[1] if hit is not None else _sorted_monomial(mono, n)",
        )],
        [f"{ALGEBRA}::test_memo_keeps_every_refusal", f"{ALGEBRA}::test_constructor_memo_matches_check_and_sort"],
    ),
    Mutant(
        "monomial memo serves an equal entry without the exact-int walk",
        [("algebra.py", "    if not _int_indices(mono):\n        return _check_and_sort(mono, n)\n", "")],
        [f"{ALGEBRA}::test_memo_keeps_every_refusal", f"{ALGEBRA}::test_constructor_memo_matches_check_and_sort"],
    ),
    # -- the parser (parsing) --
    Mutant(
        "a term's rational coefficient is dropped",
        [("parsing.py", "            coeff *= self.parse_rational()\n", "            self.parse_rational()\n")],
        [f"{CLI}::test_parse_examples", f"{CLI}::test_parse_builds_the_tree_it_reads"],
    ),
    Mutant(
        "a - between terms adds the term",
        [("parsing.py", "self.parse_term(-1 if tok.text == \"-\" else 1)", "self.parse_term(1)")],
        [f"{CLI}::test_parse_parenthesized_sums", f"{CLI}::test_parse_builds_the_tree_it_reads"],
    ),
    Mutant(
        "the depth guard admits MAX_DEPTH + 1",
        [("parsing.py", "if self.depth == MAX_DEPTH:", "if self.depth == MAX_DEPTH + 1:")],
        [f"{CLI}::test_parse_errors_have_offsets", f"{CLI}::test_parenthesis_depth_is_bounded"],
    ),
    Mutant(
        "pih(k) parses as rh(k)",
        [(
            "parsing.py",
            "make_pihat(self.n, first) if name == \"pih\" else make_rhat(self.n, first)",
            "make_rhat(self.n, first)",
        )],
        [f"{CLI}::test_parse_examples", f"{CLI}::test_parse_builds_the_tree_it_reads"],
    ),
]


# Seconds per mutant in one full run (2-vCPU x86-64 VM, Python 3.11.7); --shard balances on them.
SECONDS = {
    "leibniz weight without comb": 1.2,
    "leibniz falling factorial set to 1": 1.3,
    "leibniz memo keyed on the q powers without the degree": 1.5,
    "leibniz memo keyed on the degree without the q powers": 1.5,
    "composition drops the right operand's denominator": 56.6,
    "commutator adds b o a instead of subtracting it": 1.4,
    "the commutator skips the leading term in one order only": 1.7,
    "image memo keyed without the map instance (module-level)": 1.6,
    "quantize skips the scale for every coefficient": 1.6,
    "adjoint drops IHBAR's sign flip": 1.8,
    "adjoint drops (-1)^|alpha|": 1.5,
    "adjoint composes c o d^alpha in place of d^alpha o c": 6.7,
    "closed form with +i*hbar/2 in place of -i*hbar/2": 1.3,
    "closed form without j!": 1.2,
    "the walk goes down from a stale prefix: the parent's product in place of the child's": 1.2,
    "the walk does not restore a letter's count": 1.1,
    "average over degree! instead of the distinct words": 1.2,
    "mode table keyed without n": 1.3,
    "mode table serves a float power the table of its int": 1.2,
    "Weyl image memo keyed without n": 1.6,
    "Weyl image memo serves an equal monomial whose index or power is not an exact int": 1.7,
    "the oracle bounds a monomial's powers by its degree": 1.7,
    "a mode's numerators not reduced before the product": 2.6,
    "packed field one bit narrower than the bound": 1.3,
    "IHBAR field dropped from the packed key": 35.2,
    "the shared + skips the space check": 1.7,
    "record memo keyed without the slot": 1.9,
    "record memo keyed without the dimension": 1.8,
    "partials read only the lowest bit of a variable's field": 3.1,
    "field table drops the -1 sign of a qhat generator": 1.2,
    "the field weight drops the factor's multiplicity": 1.3,
    "the q-index keeps qhat(i,j) in the rest in place of rhat(j)": 1.4,
    "ham_vf treats every coefficient as 1": 4.1,
    "packed Lie bracket adds the second term instead of subtracting it": 3.9,
    "integer vf_bracket weighs by 1/comb without split_count": 3.2,
    "a field's symbol shift lands in the index fields": 1.3,
    "HamVF skips the index range check": 1.1,
    "the sweep drops the (p-1)! prefactor": 10.2,
    "the zero-class branch is skipped": 4.1,
    "the sweep raises a grade at the power bound unchecked": 1.7,
    "the contraction count is 1 in place of K.count(a)": 12.7,
    "the packed split count is 1": 4.1,
    "route 1's weight read by K in place of (I, J)": 2.8,
    "join drops a repeated factor's multiplicity": 1.4,
    "pi-in-f hits take sign +1": 1.3,
    "single-hit path taken for count != 1": 2.9,
    "route 2 writes into the shared table": 1.3,
    "gauge term's route 1 not checked": 1.2,
    "routes compared on the first unit pair only": 44.3,
    "bracket drops the cf * cg coefficient product": 18.6,
    "bracket's space check reads the dimension only": 1.1,
    "power bound read from an operand's first term only": 1.2,
    "gauge seed accepted on a slice": 1.3,
    "component table memo keyed without the slot": 1.6,
    "integer component builder weighs by 1 instead of K.count(j)": 1.7,
    "K packed into the wrong index field": 2.3,
    "a unit monomial's form over (r-1)! instead of r!": 1.9,
    "a single monomial with a non-unit coefficient shares the unit table": 1.6,
    "== compares unscaled forms when the denominators differ": 1.7,
    "sym_components weighs by 1/comb without split_count": 8.8,
    "dirac pair loop builds g from m1": 1.5,
    "record_dirac records \"fail\" instead of the residual": 1.2,
    "suite decorator stamps one fixed suite name": 1.0,
    "accumulate keeps a zero sum": 1.1,
    "Observable._like drops the slot": 1.0,
    "LinComb.__add__ accumulates into self.terms": 1.9,
    "LinComb.__bool__ always true": 1.4,
    "Scalar rational fast path taken for a symbol": 5.3,
    "ONE * s returns ONE": 2.1,
    "ONE_POLY * p returns ONE_POLY": 2.0,
    "single-term power scales the exponents by k - 1": 2.8,
    "single-term power keeps the coefficient unraised": 2.3,
    "monomial memo keyed without the dimension": 1.2,
    "membership checks the slot only when f has terms": 1.2,
    "membership skips the check for any slot equal to 1": 1.2,
    "monomial memo serves indices that equal an int but are not one": 1.3,
    "monomial memo serves an equal entry without the exact-int walk": 1.5,
    "a term's rational coefficient is dropped": 1.4,
    "a - between terms adds the term": 1.1,
    "the depth guard admits MAX_DEPTH + 1": 1.1,
    "pih(k) parses as rh(k)": 1.1,
}


def shard_of(mutants: list, i: int, k: int) -> list:
    """The i-th of k parts of mutants, balanced on SECONDS: longest first, onto the least loaded part."""
    default = statistics.median(SECONDS.values()) if SECONDS else 1.0
    cost = {m.name: SECONDS.get(m.name, default) for m in mutants}
    parts: list[list] = [[] for _ in range(k)]
    loads = [0.0] * k
    for m in sorted(mutants, key=lambda m: -cost[m.name]):
        j = loads.index(min(loads))
        parts[j].append(m)
        loads[j] += cost[m.name]
    return sorted(parts[i - 1], key=mutants.index)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def apply(dest: Path, edits: list) -> list[str]:
    """Apply the replacements in dest; the errors for anchors not found exactly once."""
    errors = []
    for path, anchor, replacement in edits:
        target = dest / "src" / "nsq" / path
        text = target.read_text() if target.exists() else ""
        count = text.count(anchor)
        if count != 1:
            errors.append(f"anchor found {count} times in {path}: {anchor.splitlines()[0].strip()!r}")
            continue
        target.write_text(text.replace(anchor, replacement))
    return errors


def run_tests(dest: Path, tests: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    return subprocess.run(cmd, cwd=dest, env=env, capture_output=True, text=True)


def tail(proc: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-lines:])


def judge(work: Path, m: Mutant) -> tuple[str, str]:
    """(verdict, detail) of one mutant applied in the copy at work."""
    errors = apply(work, m.edits)
    if errors:
        return "ERROR", "\n".join(errors)
    proc = run_tests(work, m.tests)
    if proc.returncode == KILLED:
        return "killed", ""
    if proc.returncode == 0:
        return "SURVIVED", ""
    return "ERROR", f"pytest exit code {proc.returncode}\n{tail(proc)}"


def shard(spec: str) -> tuple[int, int]:
    """(i, k) from "i/k", with 1 <= i <= k."""
    try:
        i, k = (int(part) for part in spec.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected i/k, got {spec!r}") from None
    if not 1 <= i <= k:
        raise argparse.ArgumentTypeError(f"shard {spec} is not in 1/k .. k/k")
    return i, k


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run every mutant against its named tests.")
    ap.add_argument("--shard", type=shard, default=(1, 1), metavar="i/k", help="run the i-th of k cost-balanced parts")
    i, k = ap.parse_args(argv).shard
    mutants = shard_of(MUTANTS, i, k)
    with tempfile.TemporaryDirectory(prefix="nsq-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        tests = sorted({t for m in mutants for t in m.tests})
        proc = run_tests(clean, tests)
        if proc.returncode != 0:
            print(f"the named tests fail on the unmutated tree:\n{tail(proc)}")
            return 1
        failed = []
        for j, m in enumerate(mutants):
            work = Path(tmp) / f"mutant{j}"
            start = time.monotonic()
            copy_tree(work)
            verdict, detail = judge(work, m)
            shutil.rmtree(work)
            print(f"{verdict:<9} {m.name} ({time.monotonic() - start:.1f} s)", flush=True)
            if verdict != "killed":
                failed.append(m.name)
                if detail:
                    print(detail)
    print(f"{len(mutants) - len(failed)} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
