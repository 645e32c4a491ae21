"""Client-end: syntax checking, access verification, history, preferences."""

import pytest

from repro.client import FeisuClient
from repro.errors import AccessDeniedError, ParseError


@pytest.fixture()
def client(fresh_cluster):
    fresh_cluster.create_user("dev", admin=True)
    return FeisuClient(fresh_cluster, "dev")


def test_syntax_check_ok(client):
    assert client.check_syntax("SELECT COUNT(*) FROM T").ok


def test_syntax_check_reports_position_and_hint(client):
    report = client.check_syntax("SELECT a")
    assert not report.ok
    assert "FROM" in report.message
    report2 = client.check_syntax("SELECT a, FROM T")
    assert not report2.ok


def test_query_raises_on_bad_syntax(client):
    with pytest.raises(ParseError):
        client.query("SELEC x FROM T")


def test_query_job_parses_once_client_side(client, monkeypatch):
    import repro.client.client as client_mod
    import repro.cluster.master as master_mod

    calls = []
    for mod in (client_mod, master_mod):
        real = mod.parse

        def counted(sql, _real=real, _name=mod.__name__):
            calls.append(_name)
            return _real(sql)

        monkeypatch.setattr(mod, "parse", counted)
    client.query_job("SELECT COUNT(*) FROM T WHERE c2 > 3")
    # One client preflight parse; the master parses again as the trust boundary.
    assert calls == ["repro.client.client", "repro.cluster.master"]


def test_preflight_error_keeps_guided_message_and_position(client):
    with pytest.raises(ParseError) as info:
        client.query("SELECT a")
    report = client.check_syntax("SELECT a")
    assert str(info.value).startswith(report.message)
    assert "SELECT ... FROM table" in report.message
    assert info.value.position == report.position >= 0


def test_query_executes_and_records_history(client):
    r = client.query("SELECT COUNT(*) FROM T WHERE c2 > 3")
    assert r.num_rows == 1
    assert len(client.history) == 1
    entry = client.history.entries()[0]
    assert entry.tables == ("T",)
    assert "c2 > 3" in entry.predicate_keys


def test_access_verification_client_side(fresh_cluster):
    fresh_cluster.create_user("nogruniversal")  # no grants at all
    client = FeisuClient(fresh_cluster, "nogruniversal")
    with pytest.raises(AccessDeniedError):
        client.query("SELECT COUNT(*) FROM T")


def test_frequent_predicates_ranking(client):
    for _ in range(3):
        client.query("SELECT COUNT(*) FROM T WHERE c2 > 5")
    client.query("SELECT COUNT(*) FROM T WHERE c1 = 7")
    frequent = client.history.frequent_predicates("dev", top=2)
    assert frequent[0] == ("c2 > 5", 3)


def test_install_preferences_pins_on_all_leaves(client):
    for _ in range(2):
        client.query("SELECT COUNT(*) FROM T WHERE c2 > 5")
    keys = client.install_preferences(top=1)
    assert keys == ["c2 > 5"]
    for leaf in client.cluster.leaves:
        entries = [
            e
            for e in leaf.index_manager._entries.values()  # noqa: SLF001
            if e.predicate_key == "c2 > 5"
        ]
        assert all(e.preferred for e in entries)


def test_format_table_layout(client):
    r = client.query("SELECT c2, COUNT(*) n FROM T GROUP BY c2 ORDER BY c2 LIMIT 3")
    text = client.format_table(r)
    lines = text.splitlines()
    assert lines[0].startswith("c2")
    assert "-+-" in lines[1]
    assert len(lines) == 5


def test_format_table_truncates(client):
    r = client.query("SELECT c1 FROM T LIMIT 30")
    text = client.format_table(r, max_rows=5)
    assert "more rows" in text


def test_frequent_columns(client):
    client.query("SELECT c1 FROM T WHERE c2 > 1 LIMIT 1")
    cols = dict(client.history.frequent_columns("dev"))
    assert "c1" in cols and "c2" in cols


def test_history_since_filter(client):
    client.query("SELECT COUNT(*) FROM T")
    later = client.cluster.sim.now + 1000.0
    assert client.history.entries("dev", since=later) == []
