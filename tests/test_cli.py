import csv

import numpy as np
import pytest

from cpshop.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    DataError,
    main,
    parse_train_config,
)
from cpshop.instances import (
    generate_instance,
    parse_instance,
    read_solution,
    write_instance,
    write_solution,
)
from cpshop.model import Solution, validate
from cpshop.net import NetPolicy, PolicyConfig, init_params, save_params
from cpshop.rules import RulePolicy, ensemble_solve, greedy_rollout
from cpshop.train import TrainConfig


@pytest.fixture
def instance_dir(tmp_path):
    d = tmp_path / "instances"
    d.mkdir()
    for seed in (1, 2, 3):
        inst = generate_instance(4, 4, seed=seed)
        write_instance(inst, d / f"{inst.name}.txt", "taillard")
    return d


# -- gen ---------------------------------------------------------------


def test_gen_single_instance(tmp_path, capsys):
    out = tmp_path / "one.txt"
    code = main(["gen", "--jobs", "3", "--machines", "3", "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    inst = parse_instance(out, "taillard")
    assert inst.job_count == 3 and inst.machine_count == 3
    assert inst.jobs == generate_instance(3, 3, seed=5).jobs


def test_gen_requires_size_or_dataset(tmp_path, capsys):
    code = main(["gen", "--jobs", "3", "--out", str(tmp_path / "x.txt")])
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("size", [["--jobs", "0", "--machines", "3"], ["--jobs", "3", "--machines", "0"]])
def test_gen_rejects_nonpositive_size_as_usage_error(tmp_path, capsys, size):
    out = tmp_path / "x.txt"
    code = main(["gen", *size, "--out", str(out)])
    assert code == EXIT_USAGE
    assert "expected an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_gen_dataset_writes_suite(tmp_path):
    out = tmp_path / "la"
    code = main(["gen", "--dataset", "la-like", "--out", str(out)])
    assert code == EXIT_OK
    files = sorted(out.iterdir())
    assert len(files) == 40
    first = parse_instance(files[0], "taillard")
    assert (first.job_count, first.machine_count) == (10, 5)


# -- solve -------------------------------------------------------------


def test_solve_with_rule(tmp_path, capsys):
    inst = generate_instance(4, 4, seed=9)
    path = tmp_path / "inst.txt"
    write_instance(inst, path, "taillard")
    out = tmp_path / "sol.txt"
    code = main(["solve", "--instance", str(path), "--method", "spt", "--out", str(out)])
    assert code == EXIT_OK
    expected = greedy_rollout(inst, RulePolicy("spt"))
    assert f"makespan {expected.makespan}" in capsys.readouterr().out
    sol = read_solution(out)
    assert validate(inst, sol)
    assert sol.makespan == expected.makespan


def test_solve_exact_reports_certification(tmp_path, capsys):
    inst = generate_instance(3, 3, seed=10)
    path = tmp_path / "inst.txt"
    write_instance(inst, path, "taillard")
    code = main(["solve", "--instance", str(path), "--method", "exact"])
    assert code == EXIT_OK
    assert "certified optimum" in capsys.readouterr().out


def test_solve_exact_with_zero_budget(tmp_path, capsys):
    inst = generate_instance(30, 10, seed=13)
    path = tmp_path / "inst.txt"
    write_instance(inst, path, "taillard")
    out = tmp_path / "sol.txt"
    code = main(["solve", "--instance", str(path), "--method", "exact", "--budget", "0",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert "best found" in capsys.readouterr().out
    assert validate(inst, read_solution(out))


def test_solve_exact_budget_replaces_the_node_cap(tmp_path, monkeypatch):
    import cpshop.cli

    calls = []
    original = cpshop.cli.solve_exact

    def recording(instance, **kwargs):
        calls.append(kwargs)
        return original(instance, **kwargs)

    monkeypatch.setattr(cpshop.cli, "solve_exact", recording)
    path = tmp_path / "inst.txt"
    write_instance(generate_instance(3, 3, seed=10), path, "taillard")
    assert main(["solve", "--instance", str(path), "--method", "exact", "--budget", "2.5"]) == EXIT_OK
    assert main(["solve", "--instance", str(path), "--method", "exact"]) == EXIT_OK
    # a budget bounds the search by time alone; without one, the default node cap holds
    assert calls == [{"time_limit": 2.5, "node_limit": None}, {}]


@pytest.mark.parametrize("method", ["mtwr", "fifo", "policy:missing.ckpt"])
def test_solve_rejects_a_budget_for_a_method_other_than_exact(tmp_path, capsys, method):
    path = tmp_path / "inst.txt"
    write_instance(generate_instance(3, 3, seed=10), path, "taillard")
    out = tmp_path / "sol.txt"
    code = main(["solve", "--instance", str(path), "--method", method, "--budget", "5",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--budget applies only to --method exact" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("budget", ["nan", "inf", "-1", "-inf", "ten"])
def test_solve_rejects_a_budget_that_is_not_finite_and_nonnegative(tmp_path, capsys, budget):
    path = tmp_path / "inst.txt"
    write_instance(generate_instance(3, 3, seed=10), path, "taillard")
    code = main(["solve", "--instance", str(path), "--method", "exact", f"--budget={budget}"])
    assert code == EXIT_USAGE
    assert "finite number >= 0" in capsys.readouterr().err


def test_solve_missing_file_is_data_error(capsys):
    code = main(["solve", "--instance", "/nonexistent/file.txt"])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_solve_unknown_method_is_usage_error(tmp_path, capsys):
    inst = generate_instance(3, 3, seed=11)
    path = tmp_path / "inst.txt"
    write_instance(inst, path, "taillard")
    code = main(["solve", "--instance", str(path), "--method", "edd"])
    assert code == EXIT_USAGE
    assert "unknown method" in capsys.readouterr().err


def test_solve_missing_checkpoint_is_data_error(tmp_path, capsys):
    inst = generate_instance(3, 3, seed=12)
    path = tmp_path / "inst.txt"
    write_instance(inst, path, "taillard")
    code = main(["solve", "--instance", str(path), "--method", "policy:/no/such.ckpt"])
    assert code == EXIT_DATA
    assert "checkpoint not found" in capsys.readouterr().err
    code = main(["solve", "--instance", str(path), "--method", f"policy:{tmp_path}"])
    assert code == EXIT_DATA  # a directory is no checkpoint either
    assert "checkpoint not found" in capsys.readouterr().err


def _spoil_header(raw, old, new):
    head, _, payload = raw.partition(b"end\n")
    assert old in head
    return head.replace(old, new, 1) + b"end\n" + payload


BAD_CHECKPOINTS = {
    "junk": lambda raw: b"not a checkpoint\n",
    "empty": lambda raw: b"",
    "blank_header_line": lambda raw: _spoil_header(raw, b"\nparam", b"\n\nparam"),
    "truncated_payload": lambda raw: raw[:-16],
    "renamed_parameter": lambda raw: _spoil_header(raw, b"param tok.sink", b"param tok.sunk"),
    "zero_width_config": lambda raw: _spoil_header(raw, b'"d_model": 8', b'"d_model": 0'),
}


@pytest.mark.parametrize("kind", ["policy", "ensemble"])
@pytest.mark.parametrize("spoil", sorted(BAD_CHECKPOINTS))
def test_solve_bad_checkpoint_is_data_error(tmp_path, capsys, spoil, kind):
    ipath = tmp_path / "inst.txt"
    write_instance(generate_instance(3, 3, seed=12), ipath, "taillard")
    ckpt = tmp_path / "bad.ckpt"
    save_params(init_params(seed=0), ckpt, PolicyConfig())
    ckpt.write_bytes(BAD_CHECKPOINTS[spoil](ckpt.read_bytes()))
    code = main(["solve", "--instance", str(ipath), "--method", f"{kind}:{ckpt}"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(ckpt) in err
    assert "Traceback" not in err


def test_solve_with_policy_and_ensemble(tmp_path, capsys):
    inst = generate_instance(4, 4, seed=13)
    ipath = tmp_path / "inst.txt"
    write_instance(inst, ipath, "taillard")
    ckpt = tmp_path / "net.ckpt"
    save_params(init_params(seed=0), ckpt, PolicyConfig())
    for method in (f"policy:{ckpt}", f"ensemble:{ckpt}"):
        code = main(["solve", "--instance", str(ipath), "--method", method, "--actors", "3"])
        assert code == EXIT_OK
        assert "makespan" in capsys.readouterr().out


def test_solve_policy_sees_the_training_window_past_ten_ops(tmp_path, capsys):
    # a checkpoint records next_ops only; next_ops=12 needs a horizon of 13,
    # above the rollout default of 10, or slots 10-12 turn into sinks
    config = PolicyConfig(next_ops=12)
    params = init_params(config, seed=0)
    ckpt = tmp_path / "net12.ckpt"
    save_params(params, ckpt, config)
    policy = NetPolicy(params, config)
    ipath, out = tmp_path / "inst.txt", tmp_path / "sol.txt"
    for seed in range(3):
        inst = generate_instance(6, 12, seed=seed)
        write_instance(inst, ipath, "taillard")
        expected = {
            "policy": greedy_rollout(inst, policy, horizon=13, next_ops=12),
            "ensemble": ensemble_solve(inst, policy, actor_count=3, seed=1, horizon=13,
                                       next_ops=12).solution,
        }
        for kind, solution in expected.items():
            code = main(["solve", "--instance", str(ipath), "--method", f"{kind}:{ckpt}",
                         "--actors", "3", "--seed", "1", "--out", str(out)])
            assert code == EXIT_OK
            assert read_solution(out).starts == solution.starts
    capsys.readouterr()


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_zero_actors_is_usage_error(instance_dir, tmp_path, capsys, command):
    ckpt = tmp_path / "net.ckpt"
    save_params(init_params(seed=0), ckpt, PolicyConfig())
    args = {
        "solve": ["--instance", str(next(instance_dir.iterdir())), "--method"],
        "bench": ["--dir", str(instance_dir), "--methods"],
    }[command]
    code = main([command, *args, f"ensemble:{ckpt}", "--actors", "0"])
    assert code == EXIT_USAGE
    assert "--actors" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "solve", "train", "bench"])
def test_negative_seed_is_usage_error(instance_dir, tmp_path, capsys, command):
    instance = str(next(instance_dir.iterdir()))
    out = tmp_path / "out"
    args = {
        "gen": ["gen", "--jobs", "3", "--machines", "3", "--seed", "-1", "--out", str(out)],
        "solve": ["solve", "--instance", instance, "--seed", "-1", "--out", str(out)],
        "train": ["train", "--instances", instance, "--seed", "-1", "--out", str(out)],
        "bench": ["bench", "--dir", str(instance_dir), "--seeds", "0,-1", "--out", str(out)],
    }[command]
    assert main(args) == EXIT_USAGE
    assert "expected an integer >= 0, got '-1'" in capsys.readouterr().err
    assert not out.exists()


# -- bench -------------------------------------------------------------


def test_bench_rows_and_summary(instance_dir, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main([
        "bench", "--dir", str(instance_dir), "--methods", "fifo,spt",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # one summary line per method
    assert lines[0].startswith(f"summary {instance_dir.name} fifo mean ")
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 2  # instances x methods
    # the printed summary is recomputable from the rows
    fifo = [int(r["makespan"]) for r in rows if r["method"] == "fifo"]
    mean = float(lines[0].split("mean ")[1].split(" ")[0])
    assert mean == pytest.approx(np.mean(fifo), abs=0.005)
    for r in rows:
        assert float(r["runtime_s"]) >= 0.0


def test_bench_from_inside_the_directory_names_it(instance_dir, tmp_path, monkeypatch, capsys):
    # "." has an empty name; the dataset is the directory it resolves to
    monkeypatch.chdir(instance_dir)
    out = tmp_path / "rows.csv"
    assert main(["bench", "--dir", ".", "--methods", "fifo", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"summary {instance_dir.name} fifo mean ")
    with open(out) as fh:
        assert {r["dataset"] for r in csv.DictReader(fh)} == {instance_dir.name}


def test_bench_empty_dir_is_data_error(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    assert main(["bench", "--dir", str(d)]) == EXIT_DATA
    assert "no instance files" in capsys.readouterr().err


def test_bench_bad_seed_list_is_usage_error(instance_dir, capsys):
    code = main(["bench", "--dir", str(instance_dir), "--seeds", "1,x"])
    assert code == EXIT_USAGE
    assert "bad seed list" in capsys.readouterr().err


# -- compress ----------------------------------------------------------


def test_compress_command(tmp_path, capsys):
    inst = generate_instance(3, 3, seed=14)
    ipath = tmp_path / "inst.txt"
    write_instance(inst, ipath, "taillard")
    base = greedy_rollout(inst, RulePolicy("fifo"))
    padded = Solution(
        instance_name=base.instance_name,
        starts=tuple(tuple(s + 3 for s in row) for row in base.starts),
        makespan=base.makespan + 3,
    )
    spath = tmp_path / "sol.txt"
    write_solution(padded, spath)
    out = tmp_path / "compressed.txt"
    code = main([
        "compress", "--instance", str(ipath), "--in", str(spath), "--out", str(out),
    ])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "start-time reduction" in text
    back = read_solution(out)
    assert validate(inst, back)
    assert back.makespan <= padded.makespan


def test_compress_rejects_infeasible_input(tmp_path, capsys):
    inst = generate_instance(3, 3, seed=15)
    ipath = tmp_path / "inst.txt"
    write_instance(inst, ipath, "taillard")
    bad = Solution(
        instance_name=inst.name,
        starts=tuple(tuple(0 for _ in ops) for ops in inst.jobs),
        makespan=1,
    )
    spath = tmp_path / "sol.txt"
    write_solution(bad, spath)
    code = main(["compress", "--instance", str(ipath), "--in", str(spath)])
    assert code == EXIT_DATA
    assert "infeasible" in capsys.readouterr().err


# -- unreadable input files --------------------------------------------


# {inst} is an instance file, {sol} a solution file holding the given text,
# {dir} an empty directory, {raw} a non-UTF-8 file alone in {rawdir}, and
# {run} an output directory that must not be created
@pytest.mark.parametrize("argv, solution_text, fragment", [
    pytest.param(["compress", "--instance", "{inst}", "--in", "{sol}"],
                 "instance x\nmakespan abc\njob 0: 0\n", "line 2",
                 id="solution-makespan-not-int"),
    pytest.param(["compress", "--instance", "{inst}", "--in", "{sol}"],
                 "instance x\nmakespan\njob 0: 0\n", "line 2", id="solution-bare-makespan"),
    pytest.param(["compress", "--instance", "{inst}", "--in", "{sol}"],
                 "instance x\nmakespan 5\njob a: 1 2\n", "line 3", id="solution-job-not-int"),
    pytest.param(["solve", "--instance", "{dir}"], None, "Is a directory",
                 id="solve-instance-dir"),
    pytest.param(["compress", "--instance", "{inst}", "--in", "{dir}"], None, "Is a directory",
                 id="compress-in-dir"),
    pytest.param(["solve", "--instance", "{inst}", "--out", "{dir}"], None, "Is a directory",
                 id="solve-out-dir"),
    pytest.param(["train", "--instances", "{inst}", "--config", "{dir}", "--out", "{run}"],
                 None, "Is a directory", id="train-config-dir"),
    pytest.param(["train", "--instances", "{dir}", "--out", "{run}"], None, "Is a directory",
                 id="train-instances-dir"),
    pytest.param(["solve", "--instance", "{raw}"], None, "can't decode", id="instance-not-utf8"),
    pytest.param(["train", "--instances", "{inst}", "--config", "{raw}", "--out", "{run}"],
                 None, "can't decode", id="config-not-utf8"),
    pytest.param(["bench", "--dir", "{rawdir}"], None, "can't decode", id="bench-dir-not-utf8"),
])
def test_unreadable_input_file_is_data_error(
    instance_dir, tmp_path, capsys, argv, solution_text, fragment
):
    paths = {
        "inst": next(instance_dir.iterdir()),
        "sol": tmp_path / "sol.txt",
        "dir": tmp_path / "adir",
        "rawdir": tmp_path / "undecodable",
        "raw": tmp_path / "undecodable" / "raw.txt",
        "run": tmp_path / "run",
    }
    paths["dir"].mkdir()
    paths["rawdir"].mkdir()
    paths["raw"].write_bytes(b"3 3\n\xff\xfe\n")
    if solution_text is not None:
        paths["sol"].write_text(solution_text)
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("data error: ") and fragment in err
    assert "Traceback" not in err
    assert not paths["run"].exists()


# {inst} is a good instance file, {bad} a truncated one alone in {baddir},
# {sol} a malformed solution file, {raw} a file that is not UTF-8 and {run}
# an output directory
@pytest.mark.parametrize("argv, named", [
    pytest.param(["compress", "--instance", "{inst}", "--in", "{sol}"], "sol", id="compress-in"),
    pytest.param(["solve", "--instance", "{bad}"], "bad", id="solve-instance"),
    pytest.param(["bench", "--dir", "{baddir}"], "bad", id="bench-dir"),
    pytest.param(["train", "--instances", "{inst},{bad}", "--out", "{run}"], "bad",
                 id="train-second-instance"),
    pytest.param(["solve", "--instance", "{raw}"], "raw", id="instance-not-utf8"),
    pytest.param(["compress", "--instance", "{inst}", "--in", "{raw}"], "raw",
                 id="solution-not-utf8"),
    pytest.param(["train", "--instances", "{inst}", "--config", "{raw}", "--out", "{run}"],
                 "raw", id="config-not-utf8"),
])
def test_data_error_names_the_malformed_file(instance_dir, tmp_path, capsys, argv, named):
    paths = {
        "inst": next(instance_dir.iterdir()),
        "baddir": tmp_path / "bad",
        "bad": tmp_path / "bad" / "truncated.txt",
        "sol": tmp_path / "bad-sol.txt",
        "raw": tmp_path / "raw.txt",
        "run": tmp_path / "run",
    }
    paths["baddir"].mkdir()
    paths["bad"].write_text("2 2\n1 2\n")
    paths["raw"].write_bytes(b"3 3\n\xff\xfe\n")
    paths["sol"].write_text("instance x\nmakespan abc\njob 0: 0\n")
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith(f"data error: {paths[named]}: ")
    assert not paths["run"].exists()


# -- train config ------------------------------------------------------


def test_parse_train_config_maps_keys(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "# comment\n"
        "epochs = 4\n"
        "actors = 2\n"
        "eps = 0.1\n"
        "beta = 0.05\n"
        "K = 7\n"
        "minibatches = 32\n"
        "expert_budget_start = 200\n"
        "expert_budget_step = 20\n"
        "lr = 0.002\n"
    )
    config = parse_train_config(path, seed=3)
    assert config == TrainConfig(
        epochs=4, actor_count=2, clip_eps=0.1, kl_limit=0.05, max_updates=7,
        minibatch_size=32, expert_evals_start=200, expert_evals_step=20,
        lr=0.002, seed=3,
    )


def test_parse_train_config_rejects_unknown_key_by_name(tmp_path, capsys):
    path = tmp_path / "train.cfg"
    path.write_text("epochs = 2\nwarmup = 5\n")
    with pytest.raises(Exception) as err:
        parse_train_config(path, seed=0)
    assert "unknown config key 'warmup'" in str(err.value)
    assert ":2:" in str(err.value)  # names the offending line


def test_parse_train_config_rejects_bad_value(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("epochs = many\n")
    with pytest.raises(Exception, match="bad value"):
        parse_train_config(path, seed=0)


def test_parse_train_config_rejects_out_of_range_value_as_data_error(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("eps = 2\n")
    with pytest.raises(DataError, match="clip_eps") as err:
        parse_train_config(path, seed=0)
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "line",
    [
        "eps = 2", "actors = 0", "minibatches = 0", "horizon = 0", "horizon = 3", "next_ops = -1",
        "epochs = -1",
        "lr = 0", "lr = -0.001", "lr = inf", "beta = nan", "expert_budget_start = -5",
        "epochs = 2\nexpert_budget_step = -5000",
    ],
)
def test_train_rejects_out_of_range_config_before_writing(tmp_path, capsys, line):
    inst = generate_instance(3, 3, seed=21)
    path = tmp_path / f"{inst.name}.txt"
    write_instance(inst, path, "taillard")
    cfg = tmp_path / "train.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "run"
    code = main(["train", "--instances", str(path), "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:initial-solution wave skipped")
def test_train_command_end_to_end(tmp_path, capsys):
    files = []
    for seed in (21, 22):
        inst = generate_instance(3, 3, seed=seed)
        p = tmp_path / f"{inst.name}.txt"
        write_instance(inst, p, "taillard")
        files.append(str(p))
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nactors = 2\nexpert_budget_start = 60\nexpert_budget_step = 10\n")
    out = tmp_path / "run"
    code = main([
        "train", "--instances", ",".join(files), "--config", str(cfg),
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "best epoch" in capsys.readouterr().out
    assert (out / "epoch_001.ckpt").exists()
    assert (out / "best.ckpt").exists()
    assert (out / "metrics.csv").exists()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
