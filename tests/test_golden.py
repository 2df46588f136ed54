import importlib.util
import shutil
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_run", GOLDEN / "run.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_golden_cases():
    count, failures = golden.run()
    assert count > 0
    assert not failures, "\n".join(failures)


def _flip_one_byte(data):
    return data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]


@pytest.mark.parametrize(
    "name, edit",
    [("stdout", _flip_one_byte), ("exit", lambda data: b"1\n")],
    ids=["stdout", "exit"],
)
def test_runner_fails_and_names_a_changed_case(tmp_path, capsys, name, edit):
    # the inputs and two of the cases: replaying every case again costs ~5 s
    root = tmp_path / "golden"
    shutil.copytree(GOLDEN / "inputs", root / "inputs")
    for case in ("est-l8-grevlex", "est-l8-lex"):
        shutil.copytree(GOLDEN / "cases" / case, root / "cases" / case)
    assert golden.main(root) == 0
    path = root / "cases" / "est-l8-lex" / name
    path.write_bytes(edit(path.read_bytes()))
    capsys.readouterr()
    assert golden.main(root) == 1
    report = capsys.readouterr().out
    assert report.startswith("golden cases under Python ")
    assert "FAIL est-l8-lex\n" in report
    assert "FAIL est-l8-grevlex" not in report
    assert f"expected {name}" in report
    assert report.endswith("1 of 2 golden cases pass\n")


def test_record_writes_a_case_that_replays_and_keeps_an_existing_one(tmp_path, capsys):
    root = tmp_path / "golden"
    shutil.copytree(GOLDEN / "inputs", root / "inputs")
    argv = ["--record", "est-l8-rev", "est", "--design", "l8.design", "--order", "lex", "--vars", "x7,x6,x5,x4,x3,x2,x1"]
    assert golden.main(root, argv) == 0
    case = root / "cases" / "est-l8-rev"
    assert (case / "args").read_text() == "est --design l8.design --order lex --vars x7,x6,x5,x4,x3,x2,x1\n"
    assert (case / "exit").read_bytes() == b"0\n"
    assert (case / "stderr").read_bytes() == b""
    assert golden.run(root) == (1, [])
    # a second recording under the name is refused and leaves the case as it was
    (case / "stdout").write_bytes(b"edited\n")
    capsys.readouterr()
    assert golden.main(root, argv[:2] + ["alias", "--design", "l8.design"]) == 2
    assert "case est-l8-rev exists; not overwritten" in capsys.readouterr().err
    assert (case / "stdout").read_bytes() == b"edited\n"
    assert (case / "args").read_text() == "est --design l8.design --order lex --vars x7,x6,x5,x4,x3,x2,x1\n"
