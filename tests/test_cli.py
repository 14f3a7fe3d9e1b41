"""Tests for the command-line interface and run configuration."""

import concurrent.futures
import csv
import hashlib
import inspect
import json
import math
import struct
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from memseg import cli
from memseg.adapter import block_param_arrays, block_params, grad_check
from memseg.cli import main
from memseg.config import KEYS, ConfigError, RunConfig, load_config, parse_override_pairs
from memseg.episode import EpisodeSettings, MemoryConfig
from memseg.synth import NoiseConfig

TINY = [
    "--set", "tasks.count=2",
    "--set", "seeds=0,1",
    "--set", "stream.volumes_per_task=1",
    "--set", "stream.slices_per_volume=4",
]


# ---------------------------------------------------------------------------
# config


def test_config_defaults_and_file(tmp_path):
    cfg = load_config(None)
    assert cfg.memory.capacity == 640
    assert cfg.memory.k == 4
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"memory.capacity": 16, "seeds": [5]}))
    cfg = load_config(path)
    assert cfg.memory.capacity == 16
    assert cfg.seeds == (5,)


def test_every_dataclass_field_has_exactly_one_key():
    for name, cls in (("noise", NoiseConfig), ("memory", MemoryConfig),
                      ("settings", EpisodeSettings)):
        named = sorted(sub for field, sub in KEYS.values() if field == name)
        assert named == sorted(f.name for f in fields(cls)), name
    top = sorted(field for field, sub in KEYS.values() if sub is None)
    assert top == sorted(
        f.name for f in fields(RunConfig) if f.name not in ("noise", "memory", "settings")
    )


def test_defaults_come_from_the_dataclasses():
    cfg = load_config(None)
    assert cfg.memory == MemoryConfig()
    assert cfg.settings == EpisodeSettings()
    # the one run-specific default: label noise 0.3 and feature noise 1.0
    assert cfg.noise == replace(NoiseConfig(), label_corrupt_prob=0.3, feature_noise_sigma=1.0)
    assert (cfg.task_count, cfg.seeds) == (10, (0, 1, 2))


def test_values_parse_by_the_type_of_their_default():
    cfg = load_config(None, {
        "adapter.enabled": "off", "seeds": "4 5", "noise.feature_noise_sigma": "2",
        "model.seed": "9", "retrieval": "random",
    })
    assert cfg.settings.adapter_enabled is False
    assert cfg.seeds == (4, 5)
    sigma = cfg.noise.feature_noise_sigma
    assert sigma == 2.0 and type(sigma) is float
    assert cfg.settings.model_seed == 9
    assert cfg.memory.retrieval == "random"
    with pytest.raises(ConfigError, match="seeds must be non-empty"):
        load_config(None, {"seeds": ""})


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"memory.capasity": 16}))
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)


REMOVED_KEYS = ("fusion.key_gain", "fusion.value_gain", "fusion.out_gain",
                "model.blocks", "model.heads", "tasks.base_seed", "memory.use_confidence")


@pytest.mark.parametrize("form", ["set", "shorthand"])
@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_config_keys_are_unknown(key, form, tmp_path, capsys):
    # the fusion gains, the block count, the head count and the task base
    # seed are constants now, and the confidence term is the retrieval rule
    # confidence_similarity, so each is an unknown key however it is given
    override = ["--set", f"{key}=1"] if form == "set" else [f"--{key}", "1"]
    assert main(["simulate", *override, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: unknown config key {key!r}"]


def test_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        load_config(None, {"memory.capacity": "lots"})
    with pytest.raises(ConfigError):
        load_config(None, {"retrieval": "nearest"})
    with pytest.raises(ConfigError):
        load_config(None, {"memory.capacity": "-3"})


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/path.json")


def test_override_pair_parsing():
    assert parse_override_pairs(["a.b=1", "c=x"]) == {"a.b": "1", "c": "x"}
    with pytest.raises(ConfigError):
        parse_override_pairs(["novalue"])


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_small_shape(capsys):
    rc = main(["gradcheck", "--trials", "1", "--shape", "2", "2", "2", "4", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max_rel_err" in out


def test_gradcheck_zero_trials_usage_error(capsys):
    assert main(["gradcheck", "--trials", "0"]) == 2


def test_gradcheck_report_write_error_exits_2(tmp_path, capsys):
    # the directory exists, so the error comes from the write after the trials
    argv = ["gradcheck", "--trials", "1", "--shape", "1", "2", "2", "4", "2",
            "--report", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


GRAD_NAMES = ["x", *block_param_arrays(block_params(np.random.default_rng(0), 4, 2))]


@pytest.mark.parametrize("name", GRAD_NAMES)
def test_gradcheck_mutation_fails_with_exit_1(name, tmp_path, capsys):
    report = tmp_path / "grad.json"
    rc = main([
        "gradcheck", "--trials", "1", "--shape", "2", "2", "2", "4", "2",
        "--mutate", name, "--report", str(report),
    ])
    assert rc == 1
    payload = json.loads(report.read_text())
    assert payload["results"][0]["failing"] == [name]
    # the default tolerance is A3's, in the command and in the library
    assert payload["tol"] == inspect.signature(grad_check).parameters["tol"].default == 1e-9


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_reports_and_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--out", str(out1), *TINY]) == 0
    assert main(["simulate", "--out", str(out2), *TINY]) == 0
    agg1 = (out1 / "aggregate.json").read_bytes()
    agg2 = (out2 / "aggregate.json").read_bytes()
    assert agg1 == agg2
    assert (out1 / "episode_seed0.json").exists()
    assert (out1 / "episode_seed1.json").exists()
    payload = json.loads(agg1)
    assert payload["config"]["memory"]["capacity"] == 640
    assert payload["config"]["seeds"] == [0, 1]


def test_simulate_dotted_flag_overrides(tmp_path):
    out = tmp_path / "r"
    assert main(["simulate", "--out", str(out), *TINY, "--memory.k", "2"]) == 0
    payload = json.loads((out / "aggregate.json").read_text())
    assert payload["config"]["memory"]["k"] == 2


@pytest.mark.parametrize(
    "overrides, k",
    [
        (["--memory.k", "5", "--set", "memory.k=3"], 3),
        (["--set", "memory.k=3", "--memory.k", "5"], 5),
        (["--memory.k=5", "--set", "memory.k=3"], 3),
        (["--set", "memory.k=3", "--memory.k=5"], 5),
    ],
    ids=["shorthand-then-set", "set-then-shorthand", "shorthand-eq-then-set",
         "set-then-shorthand-eq"],
)
def test_later_override_wins_however_spelled(overrides, k, tmp_path):
    out = tmp_path / "r"
    argv = ["simulate", "--out", str(out), *TINY, "--set", "seeds=0", *overrides]
    assert main(argv) == 0
    assert json.loads((out / "aggregate.json").read_text())["config"]["memory"]["k"] == k


def test_simulate_bad_config_exit_2(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path), "--set", "nope=1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_capacity_too_big_makes_no_out_dir(tmp_path, capsys):
    # load_config builds the memory base, so the error comes before --out
    # is created
    out = tmp_path / "r"
    argv = ["simulate", "--set", "memory.capacity=1000000000000", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: capacity 1000000000000 with feature shape (16, 8, 8)"
                   " is too big to allocate"]
    assert not out.exists()


def test_bundled_example_config(tmp_path):
    assert main([
        "simulate", "configs/example.json", "--out", str(tmp_path / "r"),
        "--set", "tasks.count=2", "--set", "stream.volumes_per_task=1",
    ]) == 0


# ---------------------------------------------------------------------------
# ablate


def test_ablate_writes_full_grid(tmp_path):
    out = tmp_path / "abl.csv"
    rc = main([
        "ablate", "--out", str(out),
        "--set", "tasks.count=1", "--set", "seeds=0",
        "--set", "stream.volumes_per_task=1", "--set", "stream.slices_per_volume=4",
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 18  # 3 capacities x 3 retrieval rules x 2 adapter
    # capacity-0 cells are identical across the retrieval rules
    zero = [r for r in rows if r["capacity"] == "0"]
    by_adapter = {}
    for r in zero:
        by_adapter.setdefault(r["adapter"], set()).add(r["mean_dsc"])
    for adapter, values in by_adapter.items():
        assert len(values) == 1, f"capacity-0 rows disagree for adapter={adapter}"
    # adapter on/off genuinely changes the encoder
    on = {r["mean_dsc"] for r in zero if r["adapter"] == "on"}
    off = {r["mean_dsc"] for r in zero if r["adapter"] == "off"}
    assert on != off


def test_ablate_workers_match_serial_bytewise(tmp_path):
    # the cells cross a process pool as pickled RunConfigs; 2 tasks of 10
    # slices insert 20 entries, so the base holds more than k = 4 entries
    # from the fifth retrieval on and capacity 16 runs replacement
    for workers in ("1", "2"):
        assert main([
            "ablate", "--out", str(tmp_path / f"w{workers}.csv"), "--workers", workers,
            "--set", "tasks.count=2", "--set", "seeds=0",
            "--set", "stream.volumes_per_task=1", "--set", "stream.slices_per_volume=10",
        ]) == 0
    # the bytes are pinned too; regenerate these only with an explained change
    pins = {
        ".csv": "3f0baffeb41c9a883a95bf8b9b09e611ee855a2f13f7b43b5deb853c7c6d1489",
        ".csv.meta.json": "b07aca59e9add917b16a260156a84a2302bd45495aa5a8875c7b40f457e0fa3d",
    }
    for suffix, digest in pins.items():
        serial = (tmp_path / f"w1{suffix}").read_bytes()
        assert serial == (tmp_path / f"w2{suffix}").read_bytes()
        assert hashlib.sha256(serial).hexdigest() == digest
    # with memory, the three retrieval rules give three distinct rows
    with open(tmp_path / "w1.csv") as fh:
        rows = list(csv.DictReader(fh))
    for capacity in ("16", "640"):
        for adapter in ("off", "on"):
            numbers = {tuple(list(r.values())[3:]) for r in rows
                       if r["capacity"] == capacity and r["adapter"] == adapter}
            assert len(numbers) == 3, (capacity, adapter)


def test_ablate_pool_is_capped_at_the_cell_count(tmp_path, monkeypatch):
    # a stand-in pool: records its size and maps serially, so no process
    # is started whatever --workers asks for
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    small = ["--set", "tasks.count=1", "--set", "seeds=0",
             "--set", "stream.volumes_per_task=1", "--set", "stream.slices_per_volume=4"]
    for workers in ("1", "1000"):
        out = tmp_path / f"w{workers}.csv"
        assert main(["ablate", "--out", str(out), "--workers", workers, *small]) == 0
    assert asked == [18]  # 3 capacities x 3 retrieval rules x 2 adapter
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w1000.csv").read_bytes()


# ---------------------------------------------------------------------------
# memory file round trip


def test_mem_export_import_round_trip(tmp_path, capsys):
    src = tmp_path / "m1.smb"
    dst = tmp_path / "m2.smb"
    assert main([
        "mem-export", "--capacity", "8", "--count", "8",
        "--shape", "2", "2", "2", "--seed", "1", "--out", str(src),
    ]) == 0
    assert main(["mem-import", str(src), "--out", str(dst)]) == 0
    assert src.read_bytes() == dst.read_bytes()
    out = capsys.readouterr().out
    assert "8/8 entries" in out


@pytest.mark.parametrize("capacity, count", [(8, 3), (8, 0), (0, 0)])
def test_mem_round_trip_of_part_filled_and_empty_bases(tmp_path, capsys, capacity, count):
    src, dst = tmp_path / "m1.smb", tmp_path / "m2.smb"
    assert main(["mem-export", "--capacity", str(capacity), "--count", str(count),
                 "--shape", "2", "2", "2", "--out", str(src)]) == 0
    assert main(["mem-import", str(src), "--out", str(dst)]) == 0
    assert src.read_bytes() == dst.read_bytes()
    assert f"{count}/{capacity} entries" in capsys.readouterr().out


# sha256 of the files mem-export writes at capacity 640, shape 16 8 8 and
# seed 3: they hold the draw order of each entry (F, PE, confidence, E) and
# the tags export/<i>, not only the round trip.  Regenerate these only with
# an explained change.
MEM_EXPORT_SHA256 = {
    100: "ca2e9d9a90dc0c6f6c2336d7044eaf84bdcdf874f84b2795717aa15b47f58fda",
    640: "e63e19212dc5747cb071f2409e2076436f98816007235659bc6dad588506d9ee",
    0: "4214bc9deb314c4d4676756142ee4b0334cfcf9cbdd208fcb01500bca7056b54",
}


@pytest.mark.parametrize("count", sorted(MEM_EXPORT_SHA256))
def test_seeded_mem_export_bytes_match_pin(tmp_path, count):
    out = tmp_path / "m.smb"
    assert main(["mem-export", "--capacity", "640", "--count", str(count),
                 "--shape", "16", "8", "8", "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MEM_EXPORT_SHA256[count]


def test_unrecognized_args_rejected(capsys):
    assert main(["mem-import", "x.smb", "--bogus.flag", "1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--set", "image.patch=0"],
        ["simulate", "--set", "noise.feature_noise_sigma=-1"],
        ["simulate", "--set", "model.heads=3"],
        ["gradcheck", "--heads", "3"],
        ["gradcheck", "--mutate", "nope"],
        ["mem-export", "--capacity", "-1", "--out", "{tmp}/m.smb"],
        ["mem-import", "{tmp}/bad_magic.smb"],
        ["mem-import", "{tmp}/missing.smb"],
        ["mem-export", "--shape", "0", "2", "2", "--out", "{tmp}/m.smb"],
        ["mem-export", "--out", "{tmp}/missing-dir/m.smb"],
        ["gradcheck", "--shape", "2", "2", "2", "4", "0"],
        ["simulate", "--set", "image.size=0"],
        ["simulate", "--set", "image.size=-4"],
        ["simulate", "--set", "model.blocks=-1"],
        ["simulate", "--out", "{tmp}/a_file"],
        ["ablate", "--out", "{tmp}/a_file/abl.csv"],
        ["mem-export", "--count", "-3", "--out", "{tmp}/m.smb"],
        ["gradcheck", "--trials", "-2"],
        ["simulate", "--set", "seeds=0,-1"],
        ["simulate", "{tmp}"],
        ["simulate", "{tmp}/binary.json"],
        ["simulate", "--set", "stream.slices_per_volume=0"],
        ["simulate", "--set", "stream.volumes_per_task=0"],
        ["simulate", "--set", "model.bottleneck=0"],
        ["simulate", "--set", "model.channels=0"],
        ["simulate", "--set", "noise.feature_noise_sigma=nan"],
        ["simulate", "--set", "noise.confidence_miscalibration=nan"],
        ["simulate", "--set", "fusion.key_gain=nan"],
        ["simulate", "--set", "noise.feature_noise_sigma=inf"],
        ["gradcheck", "--tol", "nan"],
        ["gradcheck", "--tol", "inf"],
        ["simulate", "--set", "retrieval=none"],
        ["mem-import", "{tmp}/tag_not_utf8.smb"],
        ["mem-import", "{tmp}/nan_confidence.smb"],
        ["simulate", "{tmp}/capacity_float.json"],
        ["simulate", "{tmp}/k_bool.json"],
        ["simulate", "{tmp}/sigma_bool.json"],
        ["mem-import", "{tmp}/huge_header.smb"],
        ["mem-import", "{tmp}/version_1.smb"],
        ["mem-export", "--capacity", str(1 << 40), "--count", "0",
         "--shape", "65535", "65535", "65535", "--out", "{tmp}/m.smb"],
        ["gradcheck", "--trials", "1", "--shape", "1", "2", "2", "4", "2",
         "--report", "{tmp}/missing-dir/x.json"],
        ["ablate", "--workers", "0", "--out", "{tmp}/abl.csv", *TINY, "--set", "seeds=0"],
        ["ablate", "--workers", "-5", "--out", "{tmp}/abl.csv", *TINY, "--set", "seeds=0"],
        ["gradcheck", "--memory.k", "5"],
        ["gradcheck", "--heads", "0"],
        ["gradcheck", "--shape", "3", "4", "4", "8", "8"],
        ["simulate", "--set", "memory.capacity=1000000000000"],
        ["gradcheck", "--trials", "1", "--shape", "65535", "65535", "65535", "8", "4"],
    ],
    ids=["patch-0", "negative-noise", "heads-3", "gradcheck-heads-3",
         "gradcheck-mutate-nope", "export-capacity-neg", "import-bad-magic", "import-missing",
         "export-shape-0", "export-missing-dir", "gradcheck-shape-0",
         "image-size-0", "image-size-neg", "blocks-neg", "simulate-out-file",
         "ablate-out-file", "export-count-neg", "gradcheck-trials-neg", "negative-seed",
         "config-is-dir", "config-not-utf8", "slices-per-volume-0", "volumes-per-task-0",
         "bottleneck-0", "channels-0", "noise-sigma-nan", "miscalibration-nan",
         "key-gain-nan", "noise-sigma-inf", "gradcheck-tol-nan",
         "gradcheck-tol-inf", "retrieval-none", "import-tag-not-utf8", "import-nan-confidence",
         "capacity-float", "k-bool", "sigma-bool", "import-huge-header", "import-version-1", "export-huge-base",
         "gradcheck-report-missing-dir", "ablate-workers-0", "ablate-workers-neg",
         "gradcheck-config-shorthand", "gradcheck-heads-0",
         "gradcheck-bottleneck-wide", "capacity-too-big", "gradcheck-shape-too-big"],
)
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    (tmp_path / "bad_magic.smb").write_bytes(b"NOPE" + bytes(64))
    (tmp_path / "a_file").write_bytes(b"")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
    # one-entry memory files of shape (1, 1, 1), each column one value: a
    # bad tag, a NaN confidence, and a good entry under version 1
    header, rows = b"SMB2" + struct.pack("<6I", 2, 1, 1, 1, 1, 1), bytes(24)
    (tmp_path / "tag_not_utf8.smb").write_bytes(
        header + struct.pack("<dI", 0.5, 2) + b"\xc3(" + rows)
    (tmp_path / "nan_confidence.smb").write_bytes(
        header + struct.pack("<dI", math.nan, 0) + rows)
    (tmp_path / "version_1.smb").write_bytes(
        b"SMB2" + struct.pack("<6I", 1, 1, 1, 1, 1, 1) + struct.pack("<dI", 0.5, 0) + rows)
    (tmp_path / "capacity_float.json").write_text(json.dumps({"memory.capacity": 2.7}))
    (tmp_path / "k_bool.json").write_text(json.dumps({"memory.k": True}))
    (tmp_path / "sigma_bool.json").write_text(json.dumps({"noise.feature_noise_sigma": True}))
    # an empty base whose capacity and shape numpy refuses before allocating
    (tmp_path / "huge_header.smb").write_bytes(
        b"SMB2" + struct.pack("<6I", 2, (1 << 32) - 1, 0, 65535, 65535, 65535))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if argv[0] == "simulate" and "--out" not in argv:
        argv += ["--out", str(tmp_path / "r")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    # a warning would be a second stderr line outside pytest
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, name, error",
    [
        (["simulate", *TINY, "--out", "{tmp}/r"], "run_episode", ValueError),
        (["ablate", "--workers", "1", *TINY, "--out", "{tmp}/abl.csv"], "run_episode", MemoryError),
        (["gradcheck", "--trials", "1"], "grad_check", OSError),
        (["mem-export", "--count", "1", "--out", "{tmp}/m.smb"], "save_base", OSError),
        (["mem-import", "{tmp}/m.smb"], "load_base", ValueError),
    ],
    ids=["simulate", "ablate", "gradcheck", "mem-export", "mem-import"],
)
def test_every_command_reports_its_input_error_through_main(
    argv, name, error, tmp_path, monkeypatch, capsys
):
    # the library call each command makes fails: main alone reports it,
    # as one line naming the command, and exits 2
    def boom(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, name, boom)
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{argv[0]}: boom\n"
