"""Scenario validation is the library's own input checks.

The parser used to restate every protocol rule in its own words. A copy of
that validation is kept here as the reference: the parser must accept
exactly the scenarios it accepted, and reject the others either with a
scenario-level rule or with the words of the library check that failed.
Scenarios are drawn from the parser's own tables (``_FIELDS``, ``_CHOICES``,
``_MINIMUMS``) and the ``SCHEMES``/``ATTACKS`` registry: mostly valid ones,
plus single-field mutations.
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from qvote import scenario
from qvote.anticheat import AuthoritySecrets
from qvote.cli import main
from qvote.scenario import ATTACKS, SCHEMES, ScenarioError, parse_scenario
from qvote.states import DENSE_AMP_BUDGET

# ---------------------------------------------------------------------------
# reference: the validation the parser ran before it called the library's
# checks, with the two attack-kind flags it read from the registry


_ROOM_OPTIONAL = {"swap", "entangling"}  # D <= N allowed
_CASTS_VOTE = {"cheater"}  # the attacker is voter N-1; 'votes' lists the others


def _ref_tally_room(cfg):
    relaxed = cfg.attack is not None and cfg.attack.kind in _ROOM_OPTIONAL
    if not relaxed and cfg.D <= cfg.N:
        raise ScenarioError(f"scheme {cfg.scheme!r}: requires D > N (got D={cfg.D}, N={cfg.N})")


def _ref_dolev_valid(cfg):
    if cfg.D != cfg.N + 1:
        raise ScenarioError(f"scheme {cfg.scheme!r}: requires D = N+1 (got D={cfg.D}, N={cfg.N})")


def _ref_broadcast_valid(cfg):
    if cfg.sender is None or cfg.message is None:
        raise ScenarioError(f"scheme {cfg.scheme!r}: requires 'sender' and 'message'")
    if not 0 <= cfg.sender < cfg.N:
        raise ScenarioError(f"field 'sender': requires 0 <= sender < N (got {cfg.sender})")
    if not 0 <= cfg.message < cfg.D:
        raise ScenarioError(f"field 'message': requires 0 <= message < D (got {cfg.message})")


def _ref_survey_valid(cfg):
    if cfg.salaries is None:
        raise ScenarioError(f"scheme {cfg.scheme!r}: missing required field 'salaries'")
    if len(cfg.salaries) != cfg.N:
        raise ScenarioError(f"field 'salaries': expected {cfg.N} entries")
    if any(s < 0 for s in cfg.salaries):
        raise ScenarioError("field 'salaries': entries must be non-negative")
    if sum(cfg.salaries) >= cfg.D:
        raise ScenarioError(
            f"scheme {cfg.scheme!r}: requires sum of votes < D (got {sum(cfg.salaries)} >= {cfg.D})"
        )


def _ref_secrets_valid(cfg):
    if cfg.secrets is None:
        if cfg.D <= cfg.N:
            raise ScenarioError(f"scheme {cfg.scheme!r}: drawing secrets without a [secrets] "
                                f"section requires D > N (got D={cfg.D}, N={cfg.N})")
        return
    try:
        AuthoritySecrets(
            cfg.secrets.yes_level, cfg.secrets.no_level, cfg.secrets.offset or 0.0
        ).validate(cfg.D, cfg.N)
    except ValueError as exc:
        raise ScenarioError(f"section [secrets]: {exc}") from None


def _ref_votes_valid(cfg):
    if cfg.yes_rate is not None:
        if cfg.votes is not None:
            raise ScenarioError("give either 'votes' or 'yes_rate', not both")
        if not 0.0 <= cfg.yes_rate <= 1.0:
            raise ScenarioError("field 'yes_rate': requires a probability in [0, 1]")
        if cfg.attack is not None:
            raise ScenarioError("attack scenarios need explicit 'votes'")
        return
    if cfg.votes is None:
        raise ScenarioError(f"scheme {cfg.scheme!r}: missing required field 'votes'")
    count = cfg.N - (cfg.attack is not None and cfg.attack.kind in _CASTS_VOTE)
    if len(cfg.votes) != count:
        raise ScenarioError(f"field 'votes': expected {count} entries, got {len(cfg.votes)}")
    if any(v not in (0, 1) for v in cfg.votes):
        raise ScenarioError("field 'votes': entries must be 0 or 1")


def _ref_attack_valid(cfg):
    attack, N = cfg.attack, cfg.N
    kind = ATTACKS[attack.kind]
    if cfg.scheme not in kind.schemes:
        wanted = " or ".join(repr(s) for s in kind.schemes)
        raise ScenarioError(f"attack {attack.kind!r}: requires scheme {wanted}")
    for name in kind.required:
        if getattr(attack, name) is None:
            raise ScenarioError(f"attack {attack.kind!r}: missing required field {name!r}")
    if attack.s is not None and attack.s < 1:
        raise ScenarioError(f"attack {attack.kind!r}: requires s >= 1 (s = 0 is honest)")
    if not 0 <= attack.target < N:
        raise ScenarioError(f"field 'target': requires 0 <= target < N (got {attack.target})")
    if attack.pair is not None:
        if len(attack.pair) != 2:  # the parser read a pair as exactly two integers
            raise ScenarioError("field 'pair': has invalid value")
        i, j = attack.pair
        if i == j or not (0 <= i < N and 0 <= j < N):
            raise ScenarioError("field 'pair': requires two distinct registers below N")


_REF_SCHEME_VALID = {
    "traveling": _ref_tally_room,
    "distributed": _ref_tally_room,
    "dolev": _ref_dolev_valid,
    "broadcast": _ref_broadcast_valid,
    "survey": _ref_survey_valid,
    "classical-baseline": None,
    "anticheat-distributed": _ref_secrets_valid,
    "anticheat-traveling": _ref_secrets_valid,
}


def _ref_validate(cfg):
    if cfg.attack is not None:
        _ref_attack_valid(cfg)
    if _REF_SCHEME_VALID[cfg.scheme] is not None:
        _REF_SCHEME_VALID[cfg.scheme](cfg)
    if SCHEMES[cfg.scheme].takes_votes:
        _ref_votes_valid(cfg)
    elif cfg.votes is not None or cfg.yes_rate is not None:
        raise ScenarioError(f"scheme {cfg.scheme!r}: takes no 'votes' or 'yes_rate'")


def _accepts(text: str, validate=None) -> ScenarioError | None:
    """None when the parser accepts ``text`` (with ``validate`` in place of its
    own validation, if given), else its error."""
    patch = mock.patch.object(scenario, "validate", validate) if validate else contextlib.nullcontext()
    try:
        with patch:
            parse_scenario(text)
    except ScenarioError as exc:
        return exc
    return None


# ---------------------------------------------------------------------------
# scenarios: mostly valid, plus single-field mutations


def test_the_drawn_tables_match_the_registry():
    assert set(scenario._CHOICES["scheme"]) == set(_REF_SCHEME_VALID)
    assert _CASTS_VOTE | _ROOM_OPTIONAL <= set(scenario._CHOICES["kind"])


_VALUES = {  # mutated values per field type
    int: hst.integers(-2, 8),
    float: hst.sampled_from([-0.1, 0.0, 0.3, 1.0, 1.5, 7.0]),
    scenario._int_list: hst.lists(hst.integers(-1, 3), max_size=5),
    scenario._bool: hst.sampled_from(["true", "no", "maybe"]),
}
_FIELD_NAMES = [(section, key) for section, keys in scenario._FIELDS.items() for key in keys]


def _mutated(key, convert):
    if key in scenario._CHOICES:
        return hst.sampled_from([*scenario._CHOICES[key], "bogus"])
    if key in scenario._MINIMUMS:
        low = scenario._MINIMUMS[key]
        return hst.integers(low - 1, low + 5)
    return _VALUES[convert]


@hst.composite
def _scenarios(draw, mutations=("none", "none", "drop", "set"), past_budget=None):
    """{section: {key: value}}: a mostly valid scenario, maybe with one field
    dropped or set to a drawn value; with ``past_budget``, a (scheme, backend) pair,
    one whose N registers of dimension D exceed the dense budget, under a size cap
    (N = 8, D <= 10)."""
    scheme = past_budget[0] if past_budget else draw(hst.sampled_from(sorted(SCHEMES)))
    entry, N = SCHEMES[scheme], 8 if past_budget else draw(hst.integers(1, 4))
    D = draw(hst.sampled_from([N + 1, N + 2]) if past_budget else hst.one_of(hst.just(N + 1), hst.integers(2, 6)))
    proto = {"scheme": scheme, "N": N}
    if not (entry.d_follows_n and D == N + 1 and draw(hst.booleans())):
        proto["D"] = D
    sections = {"protocol": proto}
    kinds = sorted(k for k, kind in ATTACKS.items() if scheme in kind.schemes)
    kind = draw(hst.sampled_from([None, *kinds])) if kinds else None
    if kind is not None:
        attack = {"kind": kind, "target": draw(hst.integers(0, N - 1))}
        if N >= 2 and (kind == "entangling" or draw(hst.booleans())):
            attack["pair"] = draw(hst.permutations(range(N)))[:2]
        if kind == "cheater":
            attack["s"] = draw(hst.integers(1, D + 1))
            attack["theta_mode"] = draw(hst.sampled_from(scenario.THETA_MODES))
        if kind == "entangling":
            attack["entangler"] = draw(hst.sampled_from(sorted(scenario._ENTANGLERS)))
        if kind in ("swap", "mitm") and draw(hst.booleans()):
            attack["repair"] = draw(hst.sampled_from(["true", "false"]))
        sections["attack"] = attack
    if entry.takes_votes:
        if kind is None and draw(hst.integers(0, 3)) == 0:
            proto["yes_rate"] = draw(hst.sampled_from([0.0, 0.5, 1.0]))
        else:
            count = N - (kind in _CASTS_VOTE)
            proto["votes"] = draw(hst.lists(hst.integers(0, 1), min_size=count, max_size=count))
    if scheme == "broadcast":
        proto["sender"], proto["message"] = draw(hst.integers(0, N - 1)), draw(hst.integers(0, D - 1))
    if scheme == "survey":
        proto["salaries"] = draw(hst.lists(hst.integers(0, 2), min_size=N, max_size=N))
    if scheme.startswith("anticheat") and draw(hst.booleans()):
        gap = draw(hst.integers(1, max(1, (D - 1) // N)))
        no = draw(hst.integers(0, max(0, D - 1 - gap)))
        secrets = {"yes_level": no + gap, "no_level": no}
        if draw(hst.booleans()):
            secrets["offset"] = draw(hst.sampled_from([0.0, 0.2]))
        sections["secrets"] = secrets
    sections["run"] = {"backend": past_budget[1] if past_budget else draw(hst.sampled_from(scenario.BACKENDS)),
                       "seed": draw(hst.integers(0, 3)), "trials": draw(hst.sampled_from([0, 1, 3])),
                       "repetitions": draw(hst.integers(1, 2))}
    mutation = draw(hst.sampled_from(mutations))
    if past_budget:
        sections["run"]["repetitions"] = 1
    if mutation == "drop":
        section = draw(hst.sampled_from(sorted(sections)))
        if sections[section]:
            del sections[section][draw(hst.sampled_from(sorted(sections[section])))]
    elif mutation == "set":  # a field the scenario has, or any field
        present = [(name, key) for name, body in sections.items() for key in body]
        section, key = draw(hst.sampled_from(present) | hst.sampled_from(_FIELD_NAMES))
        sections.setdefault(section, {})[key] = draw(_mutated(key, scenario._FIELDS[section][key]))
    return sections


def _text(sections) -> str:
    def show(value):
        return ",".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)

    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {show(value)}\n" for key, value in body.items())
        for name, body in sections.items()
    )


# Rejections that stay in the parser; any other names the library check's words.
_SCENARIO_LEVEL = re.compile(
    r"^line \d+: |missing required|not both|requires a probability in \[0, 1\]|need explicit 'votes'"
    r"|takes no 'votes' or 'yes_rate'|requires scheme|requires 'sender' and 'message'"
)
_LIBRARY = ("protocols.py", "anticheat.py", "attacks.py")


def _check_rejection(err: ScenarioError) -> None:
    cause = err.__cause__
    if cause is None:
        assert _SCENARIO_LEVEL.search(str(err)), str(err)
        return
    assert isinstance(cause, ValueError) and not isinstance(cause, ScenarioError)
    assert str(err).endswith(f": {cause}"), (str(err), str(cause))
    tb = cause.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_filename.endswith(_LIBRARY), tb.tb_frame.f_code.co_filename


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenarios())
def test_parser_accepts_what_the_reference_accepts(sections):
    text = _text(sections)
    err, ref = _accepts(text), _accepts(text, _ref_validate)
    assert (err is None) == (ref is None), (text, err, ref)
    if err is not None:
        _check_rejection(err)


_REJECTED = {  # name: (scenario, the library's words it is rejected with)
    "distributed-room": ("[protocol]\nscheme = distributed\nD = 3\nN = 3\nvotes = 1,0,1\n",
                         "requires D > N"),
    "dolev-dimension": ("[protocol]\nscheme = dolev\nD = 5\nN = 3\nvotes = 1,0,0\n",
                        "requires D = N+1"),
    "survey-sum": ("[protocol]\nscheme = survey\nD = 4\nN = 2\nsalaries = 2,2\n",
                   "requires sum of votes < D"),
    "drawn-secrets-room": ("[protocol]\nscheme = anticheat-traveling\nD = 3\nN = 3\nvotes = 1,0,1\n",
                           "drawing secrets requires D > N"),
    "mitm-room": ("[protocol]\nscheme = traveling\nD = 3\nN = 3\nvotes = 1,0,1\n"
                  "[attack]\nkind = mitm\n", "requires D > N"),
    "pair-ancilla": ("[protocol]\nscheme = distributed\nD = 3\nN = 3\nvotes = 1,0,1\n"
                     "[attack]\nkind = swap\npair = 0,3\n", "two distinct registers below 3"),
    "target-range": ("[protocol]\nscheme = distributed\nD = 3\nN = 3\nvotes = 1,0,1\n"
                     "[attack]\nkind = swap\ntarget = 3\n", "target out of range"),
    "cheater-votes": ("[protocol]\nscheme = anticheat-distributed\nD = 4\nN = 3\nvotes = 1,0,1\n"
                      "[attack]\nkind = cheater\ns = 2\n", "expected 2 entries"),
    "cheater-honest": ("[protocol]\nscheme = anticheat-distributed\nD = 4\nN = 3\nvotes = 1,0\n"
                       "[attack]\nkind = cheater\ns = 0\n", "s = 0 is an honest vote"),
    "negative-s": ("[protocol]\nscheme = distributed\nD = 4\nN = 3\nvotes = 1,0,1\n"
                   "[attack]\nkind = swap\ns = -1\n", "shift count must be >= 1"),
}


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_rejections_carry_the_library_words(name):
    text, words = _REJECTED[name]
    err = _accepts(text)
    assert err is not None and words in str(err)
    assert _accepts(text, _ref_validate) is not None
    _check_rejection(err)


def test_swap_and_entangling_allow_a_full_ballot():
    """The two distributed-ballot eavesdroppers do not read the tally, so D <= N is
    theirs to run; the honest commands still refuse it."""
    text = ("[protocol]\nscheme = distributed\nD = 3\nN = 3\nvotes = 1,0,1\n"
            "[attack]\nkind = {}\npair = 0,1\n")
    for kind in ("swap", "entangling"):
        assert _accepts(text.format(kind)) is None
    assert "requires D > N" in str(_accepts(text.split("[attack]")[0]))


# ---------------------------------------------------------------------------
# the CLI on drawn scenarios: exits 0, 1 or 3, and the same bytes twice


def _dense_heavy(sections) -> bool:
    proto, backend = sections["protocol"], sections.get("run", {}).get("backend", "dense")
    D, N = proto.get("D", 6), proto.get("N", 4)
    heavy = str(proto.get("scheme", "")).startswith("anticheat") and backend != "branch"
    return heavy and isinstance(D, int) and isinstance(N, int) and D ** (2 * N) > 5000


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenarios(mutations=("none", "none", "none", "drop", "set")))
def test_cli_exit_codes_and_repeatable_reports(sections):
    if _dense_heavy(sections):
        return
    text = _text(sections)
    accepted = _accepts(text) is None
    on_branch = sections.get("run", {}).get("backend") == "branch"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        path.write_text(text)
        for command in ("run", "verify", "sweep", "attack"):
            outputs = []
            for i in range(2):
                out = Path(tmp) / f"{command}-{i}.jsonl"
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([command, str(path), "--format", "json-lines", "--out", str(out)])
                assert code in (0, 1, 3), (command, text, err.getvalue())
                # a budget error already on the branch backend hints at no switch
                assert not (code == 3 and on_branch and "switch to backend = branch" in err.getvalue())
                assert accepted or code == 1, (command, text)
                outputs.append(out.read_bytes() if out.exists() else None)
            assert outputs[0] == outputs[1], (command, text)


_PAST_BUDGET = ("anticheat-distributed", "anticheat-traveling", "broadcast", "distributed", "dolev")


@pytest.mark.parametrize("backend", ["branch", "dense"])
@pytest.mark.parametrize("scheme", _PAST_BUDGET)
@settings(max_examples=2, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=hst.data())
def test_cli_past_the_dense_budget(scheme, backend, data):
    """Past the dense budget, a dense state exits 3 with the hint to switch to the
    branch backend, verify's dense-oracle checks exit 3 on either backend, and
    every other command runs to the end; each report is the same bytes twice."""
    sections = data.draw(_scenarios(mutations=("none",), past_budget=(scheme, backend)))
    proto = sections["protocol"]
    assert proto.get("D", proto["N"] + 1) ** proto["N"] > DENSE_AMP_BUDGET
    text = _text(sections)
    accepted = _accepts(text) is None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        path.write_text(text)
        for command in ("run", "verify", "sweep", "attack"):
            outputs = []
            for i in range(2):
                out = Path(tmp) / f"{command}-{i}.jsonl"
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([command, str(path), "--format", "json-lines", "--out", str(out)])
                message = err.getvalue()
                assert code in (0, 1, 3), (command, text, message)
                assert code != 1 or message.startswith("scenario error: "), message
                assert accepted or code == 1, (command, text)
                assert code == 1 or command != "attack" or "attack" in sections
                if code == 3 and command == "verify":
                    assert message.startswith("budget error in verify's dense-oracle ballot checks"), message
                elif code == 3:
                    assert backend == "dense" and message.startswith("budget error: ") and message.endswith(
                        "(hint: switch to backend = branch)\n"), message
                if command == "run" and accepted:
                    assert code == 0 or (code == 3 and backend == "dense"), (text, message)
                outputs.append(out.read_bytes() if out.exists() else None)
            assert outputs[0] == outputs[1], (command, text)
