"""Each per-n artifact is built once per criterion and passed along, and
every criterion honours ``--n-range``."""

from dihedral_mckay import constel, taut, verify


def _count_calls(monkeypatch, owner, attr):
    calls = []
    real = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def test_criterion_10_builds_one_pairing_table_per_n(monkeypatch):
    tables = _count_calls(monkeypatch, taut.PairingTable, "__init__")
    socles = _count_calls(monkeypatch, constel, "socle_table")
    assert verify.criterion_10(n_range=(3, 8))["passed"]
    assert len(tables) == 6
    assert socles == []


def test_criterion_9_cross_checks_each_socle_table_once(monkeypatch):
    socles = _count_calls(monkeypatch, constel, "socle_table")
    checks = _count_calls(monkeypatch, taut, "fm_cross_check")
    assert verify.criterion_9(n_range=(3, 8))["passed"]
    assert [args[0] for args in socles] == list(range(3, 9))
    assert [args[0] for args in checks] == list(range(3, 9))


def test_criterion_11_draws_n_inside_the_range(monkeypatch):
    built = _count_calls(monkeypatch, constel, "constellation_from_cluster")
    res = verify.criterion_11(n_range=(4, 6), trials=30)
    assert res["passed"], res
    assert len(built) == 30 and {args[0] for args in built} <= {4, 5, 6}


def test_criterion_11_runs_no_trial_on_an_empty_range(monkeypatch):
    built = _count_calls(monkeypatch, constel, "constellation_from_cluster")
    assert verify.criterion_11(n_range=(11, 20))["passed"]
    assert built == []
