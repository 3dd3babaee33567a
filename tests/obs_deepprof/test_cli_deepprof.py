"""End-to-end CLI tests for the deep-profile plane.

These drive ``repro <cmd> --deep-profile`` / ``repro flame`` /
``repro stats`` through ``main`` exactly as a user would, against real
(small) sweeps — the acceptance contract is that profiling artifacts
exist, parse, and attribute samples to solver internals.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs import deepprof
from repro.obs.flame import parse_folded


@pytest.fixture()
def profiled_run(tmp_path_factory):
    """One shared theorem2 deep+mem profile run (it costs ~2s)."""
    out = tmp_path_factory.mktemp("deepprof")
    code = main(
        [
            "theorem2",
            "--max-t",
            "3",
            "--samples",
            "4",
            "--deep-profile",
            "250",
            "--mem-profile",
            "--deep-profile-out",
            str(out),
        ]
    )
    assert code == 0
    return out


class TestDeepProfileFlag:
    def test_writes_both_artifacts(self, profiled_run):
        assert sorted(path.name for path in profiled_run.iterdir()) == [
            "DEEPPROF_theorem2.json",
            "theorem2.folded",
        ]

    def test_document_shape(self, profiled_run):
        document = json.loads(
            (profiled_run / "DEEPPROF_theorem2.json").read_text()
        )
        assert document["kind"] == "deep_profile"
        assert document["name"] == "theorem2"
        assert document["schema_version"] == deepprof.DEEPPROF_SCHEMA_VERSION
        assert document["total_samples"] > 0
        # The sweep runs under the recorder, so a critical path exists;
        # its root is the longest top-level span (the command span
        # itself only appears when --profile is also given).
        assert document["critical_path"], "spans should be recorded"
        assert document["critical_path"][0]["share"] == 1.0
        assert document["memory"]["peak_bytes"] > 0

    def test_folded_parses_and_matches_document(self, profiled_run):
        document = json.loads(
            (profiled_run / "DEEPPROF_theorem2.json").read_text()
        )
        folded = parse_folded((profiled_run / "theorem2.folded").read_text())
        assert folded == document["samples"]

    def test_samples_reach_maxis_solver_internals(self, profiled_run):
        folded = parse_folded((profiled_run / "theorem2.folded").read_text())
        assert any("repro.maxis" in key for key in folded)

    def test_recorder_left_disabled_afterwards(self, profiled_run):
        assert not obs.is_enabled()
        assert deepprof.get_profiler() is None

    def test_mem_profile_alone_skips_stacks(self, tmp_path, capsys):
        code = main(
            [
                "claims",
                "--samples",
                "1",
                "--mem-profile",
                "--deep-profile-out",
                str(tmp_path),
            ]
        )
        assert code == 0
        document = json.loads(
            (tmp_path / "DEEPPROF_claims.json").read_text()
        )
        assert document["sample_stacks"] is False
        assert document["samples"] == {}
        assert document["memory"]["peak_bytes"] > 0
        assert "peak traced" in capsys.readouterr().out


class TestSingleEnablement:
    def test_flag_combination_produces_one_meta_line(self, tmp_path):
        """--deep-profile + --profile-json + --live-out used to stack

        recorder enables; the single `_recording_enabled()` path must
        yield exactly one recorder setup, hence one meta line per sink.
        """
        events = tmp_path / "events.jsonl"
        live = tmp_path / "live.jsonl"
        code = main(
            [
                "theorem1",
                "--max-t",
                "2",
                "--samples",
                "1",
                "--deep-profile",
                "100",
                "--profile-json",
                str(events),
                "--live-out",
                str(live),
                "--deep-profile-out",
                str(tmp_path),
            ]
        )
        assert code == 0
        meta_lines = [
            json.loads(line)
            for line in events.read_text().splitlines()
            if json.loads(line).get("type") == "meta"
        ]
        assert len(meta_lines) == 1
        # And the meta line is the first line of the stream.
        first = json.loads(events.read_text().splitlines()[0])
        assert first["type"] == "meta"


class TestFlameCommand:
    FOLDED = "span:a;m:f 30\nspan:a;m:g 20\nm:h 10\n"

    def test_from_folded_file_default_out(self, tmp_path, capsys):
        source = tmp_path / "run.folded"
        source.write_text(self.FOLDED)
        assert main(["flame", str(source)]) == 0
        svg = (tmp_path / "run.svg").read_text()
        assert svg.startswith("<svg")
        assert "(60 samples)" in svg
        assert str(tmp_path / "run.svg") in capsys.readouterr().out

    def test_from_deepprof_document(self, tmp_path):
        source = tmp_path / "DEEPPROF_x.json"
        source.write_text(
            json.dumps({"kind": "deep_profile", "samples": {"m:f": 5}})
        )
        out = tmp_path / "x.svg"
        assert main(["flame", str(source), "--out", str(out)]) == 0
        assert "(5 samples)" in out.read_text()

    def test_from_events_jsonl(self, tmp_path):
        events = tmp_path / "events.jsonl"
        with obs.recording(jsonl_path=events) as recorder:
            with recorder.span("outer"):
                with recorder.span("inner"):
                    pass
        out = tmp_path / "spans.svg"
        assert main(["flame", str(events), "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_title_and_width_flags(self, tmp_path):
        source = tmp_path / "run.folded"
        source.write_text(self.FOLDED)
        out = tmp_path / "run.svg"
        assert (
            main(
                [
                    "flame",
                    str(source),
                    "--out",
                    str(out),
                    "--title",
                    "my sweep",
                    "--width",
                    "640",
                ]
            )
            == 0
        )
        svg = out.read_text()
        assert "my sweep" in svg
        assert 'width="640"' in svg

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["flame", str(tmp_path / "nope.folded")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_empty_input_exits_2(self, tmp_path, capsys):
        source = tmp_path / "empty.folded"
        source.write_text("")
        assert main(["flame", str(source)]) == 2
        assert "no stack samples" in capsys.readouterr().err

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        source = tmp_path / "bad.folded"
        source.write_text("this is not folded\noutput at all\n")
        assert main(["flame", str(source)]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestStatsFriendlyPaths:
    def test_missing_file_is_not_an_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "never-written.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "no events recorded" in out
        assert "--profile-json" in out

    def test_empty_file_is_not_an_error(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text("")
        assert main(["stats", str(events)]) == 0
        assert "no events recorded" in capsys.readouterr().out

    def test_unparseable_file_is_not_an_error(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text("not json\nstill not json\n")
        assert main(["stats", str(events)]) == 0
        assert "no parseable event lines" in capsys.readouterr().out
