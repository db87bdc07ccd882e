"""The :class:`repro.io_utils.AppendLog` contract, tested once.

The event log, the run registry and the result cache all persist through
this primitive; their own tests check only what each store adds on top.
"""

import json

import pytest

import repro.io_utils as io_utils
from repro.io_utils import AppendLog, CorruptResultError, json_line

TORN = '{"n": 99, "pad'  # what a kill mid-append leaves: no newline


@pytest.fixture
def writes(monkeypatch):
    """Every ``os.write`` payload issued by io_utils, in order."""
    calls = []
    real_write = io_utils.os.write

    def spy(fd, data):
        calls.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(io_utils.os, "write", spy)
    return calls


def _records(n):
    return "".join(json_line({"n": i}) for i in range(n))


def _tear(path):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(TORN)


# --------------------------------------------------------------------- append


def test_each_append_is_one_write(tmp_path, writes):
    log = AppendLog(tmp_path / "sub" / "log.jsonl")  # parent dir is created
    log.append(_records(3))
    log.append(_records(1))
    assert writes == [_records(3).encode(), _records(1).encode()]
    assert [r["n"] for r in log.read()] == [0, 1, 2, 0]


def test_heal_lands_in_the_same_write_as_the_records(tmp_path, writes):
    path = tmp_path / "log.jsonl"
    AppendLog(path).append(_records(1))
    _tear(path)
    writes.clear()
    AppendLog(path).append(json_line({"n": 7}))
    assert writes == [b"\n\n" + json_line({"n": 7}).encode()]
    assert [r["n"] for r in AppendLog(path).read(strict=True)] == [0, 7]


def test_held_descriptor_checks_the_tail_once_at_open(tmp_path, writes):
    path = tmp_path / "log.jsonl"
    AppendLog(path).append(_records(1))
    _tear(path)
    log = AppendLog(path)
    log.open()
    try:
        log.append(json_line({"n": 1}))
        log.append(json_line({"n": 2}))
    finally:
        log.close()
    assert log.closed
    assert writes[-2:] == [
        b"\n\n" + json_line({"n": 1}).encode(),
        json_line({"n": 2}).encode(),
    ]
    assert [r["n"] for r in AppendLog(path).read(strict=True)] == [0, 1, 2]


def test_intact_tail_gets_no_heal(tmp_path, writes):
    path = tmp_path / "log.jsonl"
    AppendLog(path).append(_records(1))
    AppendLog(path).append(_records(1))
    assert b"\n\n" not in b"".join(writes)
    assert "\n\n" not in path.read_text()


# ----------------------------------------------------------------------- read


def test_torn_final_line_is_tolerated_even_strict(tmp_path):
    path = tmp_path / "log.jsonl"
    AppendLog(path).append(_records(2))
    _tear(path)
    assert [r["n"] for r in AppendLog(path).read(strict=True)] == [0, 1]


def test_interior_damage_skipped_by_default_fatal_under_strict(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"n": 0}\n\n{"n": 1\n{"n": 2}\n')
    log = AppendLog(path, kind="widget")
    assert [r["n"] for r in log.read()] == [0, 2]  # blank line skipped too
    with pytest.raises(CorruptResultError, match=r"corrupt widget at .*log\.jsonl:3"):
        list(log.read(strict=True))


def test_parse_errors_count_as_damage(tmp_path):
    def parse(line):
        value = float(json.loads(line)["n"])  # null: TypeError
        if value < 0:
            raise ValueError("negative")
        return value

    path = tmp_path / "log.jsonl"
    path.write_text('{"n": 0}\n{"n": -1}\n{"n": null}\n{"n": 2}\n{"n": -3}\n')
    log = AppendLog(path, parse=parse)
    assert list(log.read()) == [0, 2]  # the damaged final line is silent too
    with pytest.raises(CorruptResultError, match=r"log\.jsonl:2: negative"):
        list(log.read(strict=True))
    path.write_text('{"n": 0}\n{"n": null}\n{"n": 2}\n')
    with pytest.raises(CorruptResultError, match=r"log\.jsonl:2"):
        list(log.read(strict=True))


def test_default_parse_rejects_non_objects(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('[1, 2]\n{"n": 1}\n')
    assert list(AppendLog(path).read()) == [{"n": 1}]
    with pytest.raises(CorruptResultError):
        list(AppendLog(path).read(strict=True))


def test_missing_file(tmp_path):
    log = AppendLog(tmp_path / "absent.jsonl")
    with pytest.raises(FileNotFoundError):
        list(log.read())
    assert log.poll() == []


# --------------------------------------------------------------------- follow


def test_follower_carries_a_partial_line_to_the_next_poll(tmp_path):
    path = tmp_path / "log.jsonl"
    follower = AppendLog(path)
    AppendLog(path).append(_records(1))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"n": 1, "s": "é')  # ends mid-record
    assert [r["n"] for r in follower.poll()] == [0]
    assert follower.poll() == []
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('"}\n')
    assert follower.poll() == [{"n": 1, "s": "é"}]


def test_follower_keeps_a_split_multibyte_character(tmp_path):
    path = tmp_path / "log.jsonl"
    data = json_line({"s": "é"}).encode()  # ensure_ascii: escaped
    raw = '{"s": "é"}\n'.encode("utf-8")
    cut = raw.index(b"\xc3") + 1  # between the two bytes of the character
    follower = AppendLog(path)
    path.write_bytes(data + raw[:cut])
    assert follower.poll() == [{"s": "é"}]
    with open(path, "ab") as handle:
        handle.write(raw[cut:])
    assert follower.poll() == [{"s": "é"}]


def test_follower_restarts_when_the_file_shrinks(tmp_path):
    path = tmp_path / "log.jsonl"
    follower = AppendLog(path)
    AppendLog(path).append(_records(3))
    assert len(follower.poll()) == 3
    path.write_text(json_line({"n": 42}))  # truncated and restarted
    assert follower.poll() == [{"n": 42}]


def test_follower_skips_damage(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"n": 0}\nnot json\n[3]\n{"n": 1}\n')
    assert [r["n"] for r in AppendLog(path).poll()] == [0, 1]
