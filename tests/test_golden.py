"""CLI stdout is byte-for-byte equal to the committed golden outputs.

A refactor that changes any of these artifacts fails here; regenerate a
file only after a deliberate change of the artifact, e.g.
``PYTHONPATH=src python -m dihedral_mckay fm-table --n 6 > tests/golden/fm-table_n6.json``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dihedral_mckay import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "socle-table_n5.json": ["socle-table", "--n", "5"],
    # theta in char-table order rho0, rho0', rho1, rho2, rho3, rho3':
    # planted -3 on rho1, 1 elsewhere, rho0 balancing theta(C[G]) = 0
    "socle-table_n6_theta.json": ["socle-table", "--n", "6", "--theta=1,1,-3,1,1,1"],
    "fm-table_n6.json": ["fm-table", "--n", "6"],
    # the chart layer: monomial solves, unimodularity and intersection forms
    "hilb-atlas_n5.json": ["hilb-atlas", "--n", "5"],
    "hilb-atlas_n6.json": ["hilb-atlas", "--n", "6"],
    # the chart adjacency graph, the one dot output of the chart layer
    "hilb-atlas_n5.dot": ["hilb-atlas", "--n", "5", "--format", "dot"],
    "strict-transforms_n5.json": ["strict-transforms", "--n", "5"],
    "strict-transforms_n6.json": ["strict-transforms", "--n", "6"],
    "fold_n6.json": ["fold", "--n", "6"],
    # odd n: the X1 count with the invariant-chart tangency check
    "fold_n9.json": ["fold", "--n", "9"],
    "strict-transforms_n7.json": ["strict-transforms", "--n", "7"],
    "chain_n5.json": ["chain", "--n", "5"],
    # even n: blow-downs carry both boundary components onto one image point
    "chain_n6.json": ["chain", "--n", "6"],
    # the dual graph with its dashed boundary pairings
    "fold_n6.dot": ["fold", "--n", "6", "--format", "dot"],
    "fold_n9.dot": ["fold", "--n", "9", "--format", "dot"],
    "refdiv_n7_k2.json": ["refdiv", "--n", "7", "--k", "2"],
    # the even end charts: W_m on A_m and A_(m+1), and W_(m-1), whose far
    # point on E_(m-1) is the point u = 1 of A_m
    "refdiv_n6_k3.json": ["refdiv", "--n", "6", "--k", "3"],
    "refdiv_n8_k3.json": ["refdiv", "--n", "8", "--k", "3"],
    "refdiv_n8_k4.json": ["refdiv", "--n", "8", "--k", "4"],
    # odd n, k = m: the far point of the last curve lies on Ainv
    "refdiv_n9_k4.json": ["refdiv", "--n", "9", "--k", "4"],
    # the character layer: the only artifacts that print CycloElt values
    "chartable_n5.json": ["chartable", "--n", "5", "--format", "json"],
    "chartable_n6.json": ["chartable", "--n", "6", "--format", "json"],
    "chartable_n5.txt": ["chartable", "--n", "5", "--format", "table"],
    "chartable_n6.txt": ["chartable", "--n", "6", "--format", "table"],
    "quiver_n5.json": ["quiver", "--n", "5", "--format", "json"],
    "quiver_n6.json": ["quiver", "--n", "6", "--format", "json"],
    "quiver_n5.dot": ["quiver", "--n", "5", "--format", "dot"],
    "quiver_n6.dot": ["quiver", "--n", "6", "--format", "dot"],
    # the tautological ledgers with their torsion check, and the fixed points
    "taut-table_n5.json": ["taut-table", "--n", "5"],
    "taut-table_n6.json": ["taut-table", "--n", "6"],
    "taut-table_n5.txt": ["taut-table", "--n", "5", "--format", "table"],
    "taut-table_n6.txt": ["taut-table", "--n", "6", "--format", "table"],
    "fixed-points_n5.json": ["fixed-points", "--n", "5"],
    "fixed-points_n6.json": ["fixed-points", "--n", "6"],
    # the pass/fail lines and the JSON report of every criterion
    "verify_n3-6.json": ["verify", "--n-range", "3..6", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(capsys, name):
    assert cli.main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_verify_with_asserts_stripped_matches_golden():
    """python -O strips every assert; the verify run still passes and prints
    its golden report byte for byte."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-m", "dihedral_mckay", *CASES["verify_n3-6.json"]],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "verify_n3-6.json").read_bytes()
