"""A fuzz of the CLI exit-code contract: extreme numbers in every flag.

This is the ``simulate`` slice: each number flag set alone to each of
``ALONE``, and each pair of flags set to each pair of ``PAIRED``, on a free
and on a clamped base scenario.  Every case must exit 0, 2 or 3, print one
``error:`` line on failure and no warning, and write only finite numbers.
"""
import itertools
import json
import re
import warnings

import pytest

from pflsafe.cli import main

#: the values each flag takes alone
ALONE = ("0", "-0.0", "5e-324", "1e-300", "1e300", "1.75e308", "-1.75e308",
         "nan", "inf", "-inf")

#: the values each pair of flags takes
PAIRED = ("5e-324", "1e-300", "1e300", "1.75e308")

SIMULATE_BASES = {
    "free": {"--mr": "3", "--mh": "1", "--k": "5", "--v0": "1"},
    "clamped": {"--mr": "3", "--mh": "inf", "--k": "75000", "--v0": "0.1"},
}


def _simulate_cases(base: dict[str, str]) -> list[dict[str, str]]:
    """``base`` with one flag, or a pair of flags, set to extreme values."""
    cases = [dict(base, **{flag: value}) for flag in base for value in ALONE]
    for pair in itertools.combinations(base, 2):
        cases += [dict(base, **dict(zip(pair, values)))
                  for values in itertools.product(PAIRED, repeat=2)]
    return cases


def _finite_json(text: str) -> bool:
    """Whether a JSON text holds no ``NaN``, ``Infinity`` or ``-Infinity``."""
    constants = []
    json.loads(text, parse_constant=constants.append)
    return not constants


@pytest.mark.parametrize("base", SIMULATE_BASES)
def test_simulate_keeps_the_exit_code_contract(tmp_path, capsys, base):
    cases = _simulate_cases(SIMULATE_BASES[base])
    assert len(cases) == 4 * len(ALONE) + 6 * len(PAIRED) ** 2
    broken = []
    for i, case in enumerate(cases):
        out = tmp_path / f"o{i}"
        argv = ["simulate", *itertools.chain(*case.items()), "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a usage error
                code = exc.code
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error: " in line]
        if code not in (0, 2, 3):
            broken.append((case, f"exit {code}"))
        elif caught:
            broken.append((case, f"warned {caught[0].message}"))
        elif code == 0 and (err or not _finite_json(
                (out / "outcome.json").read_text(encoding="utf-8"))):
            broken.append((case, "stderr or a non-finite outcome"))
        elif code and (len(errors) != 1
                       or (code == 3 and errors != [err.strip()])
                       or re.search(r"\bdt\b|horizon", errors[0])):
            broken.append((case, err))
    assert broken == []
