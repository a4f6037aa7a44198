"""A session with one run file or manifest row changed is ingested or refused, never a crash.

A synth session of 3 samples per class is written once.  Each example makes one
change to a copy of it, to a run file (a cell, a line or a byte; a truncation;
an empty or deleted file; UTF-16; CRLF line ends; a repeated header) or to one
manifest row, and runs ``enose ingest`` on the copy: it must exit 0, 1 or 2
without raising, and an error must name the changed file (a changed manifest row
may instead name the run file it lists).
"""

import contextlib
import io
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from enose.cli import main

CELLS = ("x", "", " ", "nan", "-inf", "1e999", "1_5", "١٢", "0x10", '"1"', "1,2",
         "1e-400", "\x00")
ROWS = ("", "# a comment", "missing__run0.csv,onion", "onion__run0.csv,a,b", '"unclosed',
        "onion__run0.csv", ",onion", "onion__run0.csv,cardamom", "./onion__run0.csv,onion",
        "manifest.csv,onion", ".,onion")
RUN_CHANGES = ("cell", "line", "byte", "truncate", "empty", "delete", "utf16", "crlf",
               "header")
CHANGES = RUN_CHANGES + ("manifest row",) * 3  # a quarter of the examples change the manifest


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; its stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """(root, {file name: text}) of a 3-per-class synth session."""
    root = tmp_path_factory.mktemp("session-fuzz")
    assert _quiet_main(["--samples", "3", "--out", str(root / "synth"), "synth"])[0] == 0
    files = {p.name: p.read_text() for p in sorted((root / "synth").iterdir())}
    assert len(files) == 11
    return root, files


def _changed_run(text: str, change: str, rnd):
    """``text`` with one ``change``: a str or bytes to write, or None to delete the file."""
    lines = text.split("\n")
    i = rnd.randrange(len(lines))
    if change == "cell":
        cells = lines[i].split(",")
        cells[rnd.randrange(len(cells))] = rnd.choice(CELLS)
        lines[i] = ",".join(cells)
    elif change == "line":
        lines[i:i + 1] = rnd.choice(([], [lines[i]] * 2, [rnd.choice(CELLS)]))
    elif change == "byte":
        data = bytearray(text.encode())
        data[rnd.randrange(len(data))] = rnd.randrange(256)
        return bytes(data)
    elif change == "truncate":
        return text[:rnd.randrange(len(text))]
    elif change == "empty":
        return ""
    elif change == "delete":
        return None
    elif change == "utf16":
        return text.encode("utf-16")
    elif change == "crlf":
        return text.replace("\n", "\r\n")
    else:  # "header": the header line again, before any line but the first
        lines.insert(rnd.randrange(1, len(lines) + 1), lines[0])
    return "\n".join(lines)


def _changed_manifest(text: str, rnd) -> str:
    """``text`` with one row replaced, deleted or repeated."""
    lines = text.splitlines()
    i = rnd.randrange(len(lines))
    lines[i:i + 1] = rnd.choice(([rnd.choice(ROWS)], [], [lines[i]] * 2))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(change=st.sampled_from(CHANGES), run=st.integers(0, 9),
       rnd=st.randoms(use_true_random=False))
def test_a_session_with_one_change_is_ingested_or_refused_naming_its_file(session, change,
                                                                           run, rnd):
    root, files = session
    copy = root / "changed"
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir()
    for name, text in files.items():
        (copy / name).write_text(text)
    manifest = copy / "manifest.csv"
    if change == "manifest row":
        changed = manifest
        changed.write_text(_changed_manifest(files[manifest.name], rnd))
    else:
        changed = copy / sorted(name for name in files if name != manifest.name)[run]
        new = _changed_run(files[changed.name], change, rnd)
        if new is None:
            changed.unlink()
        elif isinstance(new, bytes):
            changed.write_bytes(new)
        else:
            changed.write_text(new)
    config = root / "ingest.ini"
    config.write_text(f"[data]\nsource = manifest\nmanifest = {manifest}\n")
    code, err = _quiet_main(["--config", str(config), "ingest"])
    assert code in (0, 1, 2)
    if code and changed == manifest:  # a changed row may name a run file that fails
        assert str(manifest) in err or f"{copy}{os.sep}" in err, err
    elif code:
        assert str(changed) in err, err
