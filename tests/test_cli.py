import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import slidekick
import slidekick.cli
import slidekick.integrator
from slidekick.cli import main


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_poincare_spec_example(tmp_path):
    out = tmp_path / "p.csv"
    code, _ = run_cli(
        "poincare", "--model", "normal-fold", "--profile", "linear",
        "--eps", "1e-3", "--y0", "0.25", "--probe", "-0.8", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "eps,x_in,x_out,transit_time"
    x_out = float(lines[1].split(",")[2])
    assert x_out == pytest.approx(0.4990, abs=1e-4)


def test_inner_summary_format(tmp_path):
    out = tmp_path / "inner.csv"
    code, text = run_cli("inner", "--p", "2", "--phi-p", "-3",
                         "--u-start", "-30", "--out", str(out))
    assert code == 0
    assert text.startswith("eta0_at_0=")
    assert "err=" in text
    # stability across a doubled start depth
    code2, text2 = run_cli("inner", "--p", "2", "--phi-p", "-3",
                           "--u-start", "-60", "--out", str(out))
    v1 = float(text.split()[0].split("=")[1])
    v2 = float(text2.split()[0].split("=")[1])
    assert abs(v1 - v2) < 1e-8


def test_inner_csv_deterministic(tmp_path):
    # two cold solves write the same bytes: the stepper, seeds and grid are fixed
    from slidekick.inner import distinguished_solution

    texts = []
    for k in range(2):
        distinguished_solution.cache_clear()
        out = tmp_path / f"inner{k}.csv"
        code, _ = run_cli("inner", "--p", "3", "--phi-p", "15", "--out", str(out))
        assert code == 0
        texts.append(out.read_bytes())
    assert texts[0].splitlines()[0] == b"u,eta"
    assert texts[0] == texts[1]


def test_bifurcate_csv_deterministic(tmp_path):
    # the README's grazing scan writes the same bytes and the same saddle-node twice
    runs = []
    for k in range(2):
        out = tmp_path / f"bif{k}.csv"
        code, text = run_cli("bifurcate", "--family", "grazing-repelling", "--eps", "1e-3",
                             "--mu", "0:1.5e-3:13", "--out", str(out))
        assert code == 0
        runs.append((text, out.read_bytes()))
    assert runs[0][1].splitlines()[0] == b"mu,fixed_point,stability,gamma,delta"
    assert runs[0][0].startswith("collision_mu=")
    assert runs[0] == runs[1]


def test_exponent_on_a_fitted_germ(tmp_path):
    # general-fold's germ has no closed form, and its x0 is the fold orbit's
    # own landing: a least-squares intercept 1.8e-6 off bent the deviations
    # so far that the fit was rejected (r^2 = 0.79).  The deviation is
    # measured from x0+ + alpha+ eps, so a biased alpha+ bends its eps^{4/3}
    # law (1.378 with a 3e-4 bias; the stencil's alpha+ reads 1.334643)
    code, text = run_cli("exponent", "--model", "general-fold", "--profile", "poly(2)",
                         "--eps-list", "1e-6,3e-6,1e-5,3e-5,1e-4", "--out", str(tmp_path / "e.csv"))
    assert code == 0
    slopes = dict(line.split()[0].split("=") for line in text.splitlines())
    assert float(slopes["exit_slope"]) == pytest.approx(2.0 / 3.0, abs=0.02)
    assert float(slopes["deviation_slope"]) == pytest.approx(4.0 / 3.0, abs=0.01)


def test_friction_stdout_deterministic():
    # the README's friction command prints the same summary twice; it writes
    # no CSV, so it takes no --out
    runs = [run_cli("friction", "--model", "coulomb", "--eps", "1e-3") for _ in range(2)]
    assert runs[0][0] == 0 and runs[0][1].startswith("tangent_x=")
    assert runs[0] == runs[1]
    assert run_cli("friction", "--model", "coulomb", "--eps", "1e-3", "--out", "f.csv")[0] == 2


def test_models_list():
    code, text = run_cli("models", "list")
    assert code == 0
    for mid in ("normal-fold", "coulomb", "stribeck", "saddle-homoclinic"):
        assert mid in text


def test_simulate_csv(tmp_path):
    out = tmp_path / "traj.csv"
    code, _ = run_cli(
        "simulate", "--model", "normal-fold", "--start=-0.8,0.1",
        "--until-y", "0.25", "--out", str(out),
    )
    assert code == 0
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "t,x,y,event"
    assert "\r" not in text
    last = lines[-1].split(",")
    assert float(last[2]) == pytest.approx(0.25, abs=1e-12)
    assert last[3].startswith("cross_section")


def test_simulate_csv_strip_events():
    # strip entry and exit fall between solver steps and get rows of their own
    code, text = run_cli("simulate", "--model", "normal-fold", "--eps", "1e-3",
                         "--start=-0.8,0.1", "--until-y", "0.25")
    assert code == 0
    rows = [ln.split(",") for ln in text.splitlines()[1:]]
    ts = [float(r[0]) for r in rows]
    assert ts == sorted(ts)
    strip = [(r[3], float(r[0]), float(r[2])) for r in rows if r[3].endswith("strip")]
    assert [k for k, _, _ in strip] == ["enter_strip", "exit_strip"]
    assert strip[0][1] == pytest.approx(0.0645, abs=1e-4)
    assert strip[1][1] == pytest.approx(1.343, abs=1e-3)
    assert all(y == pytest.approx(1e-3, abs=1e-12) for _, _, y in strip)


def test_simulate_eps_end_time_matches_tight_radau():
    # the regularized orbit steps with LSODA at rtol 1e-12, atol 1e-14, the
    # strip crossing's setting; 1.8399990058790427 is the end time of the
    # same orbit on Radau at rtol 1e-13, atol 1e-15 (measured 6.8e-11 off;
    # at integrate's default rtol 1e-10 LSODA was 4.5e-9 off)
    code, text = run_cli("simulate", "--model", "normal-fold", "--eps", "1e-3",
                         "--start=-0.8,0.1", "--until-y", "0.25")
    assert code == 0
    assert abs(float(text.splitlines()[-1].split(",")[0]) - 1.8399990058790427) <= 2e-10


def test_simulate_csv_to_stdout():
    code, text = run_cli(
        "simulate", "--model", "normal-fold", "--start=-0.8,0.1", "--until-y", "0.25",
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "t,x,y,event"
    assert lines[-1].split(",")[3].startswith("cross_section")


def test_simulate_labels_each_event_once_in_order():
    # slide_start falls on two steps (the arc's last state and the slide's
    # first), slide_end and fold_exit on one time; each is labelled once
    from slidekick.fields import filippov_flow
    from slidekick.integrator import Section
    from slidekick.models import model

    code, text = run_cli("simulate", "--model", "normal-fold", "--start=-0.8,0.1", "--until-y", "0.25")
    assert code == 0
    rows = [ln.split(",") for ln in text.splitlines()[1:]]
    traj = filippov_flow(model("normal-fold").system, (-0.8, 0.1), Section(0.25, "all", id="target"), t_max=50.0)
    kinds = [e.kind for e in traj.events]
    assert kinds == ["slide_start", "slide_end", "fold_exit", "cross_section:target"]
    assert [r[3] for r in rows if r[3]] == kinds
    assert [float(r[0]) for r in rows] == sorted(float(r[0]) for r in rows)


def test_manifold_csv(tmp_path):
    out = tmp_path / "trace.csv"
    code, _ = run_cli("manifold", "--profile", "poly(2)", "--eps", "1e-3", "--out", str(out))
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,v,margin_lower,margin_upper"
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    # the margins of the graph-over-x inequality, which applies on x <= -eps^0.45
    inside = [r for r in rows if r[0] <= -1e-3 ** 0.45]
    assert len(inside) > 100
    assert all(math.isfinite(r[2]) and math.isfinite(r[3]) for r in inside)
    assert all(math.isnan(r[2]) and math.isnan(r[3]) for r in rows if r[0] > -1e-3 ** 0.45)


def test_readme_manifold_margins_not_negative(tmp_path):
    # the README's manifold command: the trace satisfies the graph-over-x
    # inequality (K = 10, lam = 0.45) on every row where it applies
    out = tmp_path / "trace.csv"
    assert run_cli("manifold", "--model", "normal-fold", "--profile", "poly(2)", "--eps", "1e-4",
                   "--out", str(out))[0] == 0
    rows = [[float(c) for c in ln.split(",")] for ln in out.read_text(encoding="utf-8").splitlines()[1:]]
    inside = [r for r in rows if not math.isnan(r[2])]
    assert len(inside) > 1000
    assert all(r[2] >= 0.0 and r[3] >= 0.0 for r in inside)


def test_csv_number_format_only_in_cli():
    # every CSV goes through cli._write_csv, the one place that formats numbers
    src = Path(slidekick.__file__).parent
    writers = [p.name for p in src.glob("*.py") if ".17g" in p.read_text(encoding="utf-8")]
    assert writers == ["cli.py"]


def run_with_config(tmp_path, text, *argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    return run_cli(*argv, "--config", str(cfg))


def test_config_unknown_key_rejected(tmp_path):
    code, _ = run_with_config(tmp_path, "frobnicate = 3\n",
                              "poincare", "--model", "normal-fold", "--eps", "1e-3", "--probe=-0.8")
    assert code == 2


def test_config_text_parsed_like_a_file(tmp_path):
    args = ("poincare", "--model", "normal-fold", "--probe=-0.8")
    assert run_with_config(tmp_path, "frobnicate = 3\n", *args, "--eps", "1e-3")[0] == 2
    assert run_with_config(tmp_path, "model normal-fold\n", *args, "--eps", "1e-3")[0] == 2
    code, text = run_with_config(tmp_path, "eps = 1e-3  # strip width\n", *args)
    assert code == 0
    assert text.splitlines()[1].startswith("0.001,-0.8")


def test_config_file_feeds_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("probe = -0.8\ny0 = 0.25\n", encoding="utf-8")
    out = tmp_path / "p.csv"
    code, _ = run_cli("poincare", "--model", "normal-fold", "--profile", "linear",
                      "--eps", "1e-3", "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert "-0.8" in out.read_text().splitlines()[1]


def test_config_value_matches_flag(tmp_path):
    # a config value stands in for a flag that has a default
    cfg = tmp_path / "run.cfg"
    cfg.write_text("y0 = 0.3\n", encoding="utf-8")
    args = ("poincare", "--model", "normal-fold", "--eps", "1e-3", "--probe=-0.8")
    code, from_config = run_cli(*args, "--config", str(cfg))
    assert code == 0
    assert from_config == run_cli(*args, "--y0", "0.3")[1]


def test_config_fills_required_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = normal-fold\neps = 1e-3\nprobe = -0.8\n", encoding="utf-8")
    code, text = run_cli("poincare", "--config", str(cfg))
    assert code == 0
    assert text.splitlines()[1].startswith("0.001,-0.8")


def test_exit_code_2_on_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n", encoding="utf-8")
    code = main(["poincare", "--model", "normal-fold", "--profile", "linear",
                 "--eps", "1e-3", "--probe", "-0.8", "--config", str(cfg)])
    assert code == 2


def test_config_key_without_option_rejected(tmp_path):
    # no subcommand takes a variant, so the key would be read and ignored
    cfg = tmp_path / "variant.cfg"
    cfg.write_text("variant = repelling\n", encoding="utf-8")
    code = main(["poincare", "--model", "normal-fold", "--profile", "linear",
                 "--eps", "1e-3", "--probe", "-0.8", "--config", str(cfg)])
    assert code == 2


@pytest.mark.parametrize("bad", [("--profile", "bogus"), ("--profile", "poly(1)"), ("--model", "bogus")])
def test_exit_code_2_on_bad_model_or_profile(bad, capsys):
    # the last of a repeated flag wins
    code = main(["poincare", "--model", "normal-fold", "--profile", "linear",
                 "--eps", "1e-3", "--probe=-0.8", *bad])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")


POINCARE = ("poincare", "--model", "normal-fold", "--probe=-0.8")


@pytest.mark.parametrize("argv, config, expected", [
    ((*POINCARE, "--eps", "abc"), None, 2),
    ((*POINCARE, "--eps=-1e-3"), None, 2),
    ((*POINCARE, "--eps", "1e-3", "--config", "missing.cfg"), None, 2),
    (("bifurcate", "--family", "homoclinic", "--eps", "1e-3", "--mu", "0", "--nu", "abc"), None, 2),
    (("inner", "--p", "x", "--phi-p", "-3"), None, 2),
    (("inner", "--p", "2", "--phi-p", "3"), None, 2),
    (("bifurcate", "--family", "grazing-attracting", "--eps", "1e-3", "--mu", "0:1:x"), None, 2),
    (("simulate", "--model", "normal-fold", "--start=1"), None, 2),
    (POINCARE, "eps = abc\n", 2),
    (("manifold", "--profile", "linear", "--eps", "1e-3", "--from-x", "0.5"), None, 2),
    # a probe on the wrong side of the fold is outside the fold map's domain
    (("poincare", "--model", "normal-fold", "--eps", "1e-3", "--probe", "2.5"), None, 2),
    # non-finite and non-positive numbers: these hung, printed NaN rows or
    # ended in a scipy traceback, and a negative t-max integrated backward
    (("inner", "--p", "2", "--phi-p", "-3", "--u-start", "nan"), None, 2),
    (("simulate", "--model", "normal-fold", "--start=-0.8,0.1", "--t-max", "nan"), None, 2),
    ((*POINCARE, "--eps", "nan"), None, 2),
    ((*POINCARE, "--eps", "1e-3", "--y0", "nan"), None, 2),
    (("friction", "--model", "coulomb", "--eps", "nan"), None, 2),
    (("simulate", "--model", "normal-fold", "--start=nan,0.1"), None, 2),
    (("simulate", "--model", "normal-fold", "--start=-0.8,0.1", "--t-max=-1"), None, 2),
    (("simulate", "--model", "normal-fold", "--start=-0.8,0.1", "--t-max=-1", "--eps", "1e-3"), None, 2),
    (("simulate", "--model", "normal-fold", "--start=-0.8,0.1", "--until-y", "nan"), None, 2),
    (("bifurcate", "--family", "grazing-attracting", "--eps", "1e-3", "--mu", "0:1:0"), None, 2),
    (POINCARE, "eps = inf\n", 2),
    # t-max runs out on Sigma before the section: no arrival, as with --eps
    (("simulate", "--model", "normal-fold", "--start=-0.8,0.1", "--until-y", "0.25", "--t-max", "0.1"), None, 1),
    # a section y0 = 0.25 at or below the strip top: the scans took sqrt(y0 - eps)
    # (math domain error) or shot a start on the strip top (EventNotBracketed)
    (("bifurcate", "--family", "grazing-repelling", "--eps", "0.26", "--mu", "0"), None, 2),
    (("friction", "--model", "coulomb", "--eps", "0.3"), None, 2),
    (("friction", "--model", "coulomb", "--eps", "0.25"), None, 2),
    # a degree past P_MAX: p! overflowed a float, and numpy refused the power 101 of 1 - v^2
    (("inner", "--p", "171", "--phi-p", "-3"), None, 2),
    ((*POINCARE, "--eps", "1e-3", "--profile", "poly(102)"), None, 2),
    # a to-v below the seed: the upward stop never fired and the trace ran to x = 49
    (("manifold", "--profile", "poly(2)", "--eps", "1e-4", "--to-v=-5"), None, 2),
], ids=["eps-abc", "eps-negative", "config-missing", "nu-abc", "p-x", "phi-p-sign", "mu-grid-x",
        "start-one-number", "config-eps-abc", "manifold-pole", "probe-past-fold", "u-start-nan",
        "t-max-nan", "eps-nan", "y0-nan", "friction-eps-nan", "start-nan", "t-max-negative",
        "t-max-negative-eps", "until-y-nan", "mu-grid-empty", "config-eps-inf", "t-max-before-section",
        "grazing-section-in-strip", "coulomb-section-in-strip", "coulomb-section-on-strip-top",
        "inner-p-past-max", "profile-p-past-max", "manifold-to-v-below-seed"])
def test_exit_codes(tmp_path, monkeypatch, argv, config, expected):
    monkeypatch.chdir(tmp_path)
    if config is None:
        code, _ = run_cli(*argv)
    else:
        code, _ = run_with_config(tmp_path, config, *argv)
    assert code == expected


@pytest.mark.parametrize("extra, stage", [((), "filippov flow"), (("--eps", "1e-3"), "integrate")],
                         ids=["filippov", "regularized"])
def test_t_max_before_section_names_stage_and_last_state(capsys, extra, stage):
    # the regularized flow used to print only "integration reached t_max
    # before the stopping condition"
    code, _ = run_cli("simulate", "--model", "normal-fold", "--start=-0.8,0.1", "--until-y", "0.25",
                      "--t-max", "0.1", *extra)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: NoArrival: {stage}: t_max=0.1 ran out before y = 0.25; last state t=0.1, x=-0.72")


def test_unwritable_out_exits_2(tmp_path, capsys):
    # an --out in a directory that does not exist is a configuration error
    # that names the path, not a traceback from the CSV writer
    out = tmp_path / "missing" / "x.csv"
    assert main([*POINCARE, "--eps", "1e-3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write ") and str(out) in err


def test_exponent_probe_missing_the_strip_exits_1(capsys):
    # the X+ orbit from -0.4 bottoms out at y = 0.09, above every strip
    code, _ = run_cli("exponent", "--model", "normal-fold", "--profile", "poly(2)",
                      "--eps-list", "1e-6,3e-6,1e-5,3e-5,1e-4", "--probe=-0.4")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: NoArrival: landing scan:")
    assert "probe x=-0.4 " in err and "eps=1e-06 " in err


def _must_not_run(*args, **kwargs):
    raise AssertionError("a solve started")


def test_unwritable_out_exits_2_before_the_solve(monkeypatch, capsys, tmp_path):
    # the --out directory is checked before the command runs: no germ and no fold map
    import slidekick.poincare

    for name in ("fit_tangency_constants", "map_P_epsilon"):
        monkeypatch.setattr(slidekick.poincare, name, _must_not_run)
    out = tmp_path / "missing" / "x.csv"
    assert main(["exponent", "--model", "general-fold", "--profile", "poly(2)",
                 "--eps-list", "1e-6,3e-6,1e-5,3e-5,1e-4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write ") and str(out) in err


@pytest.mark.parametrize("eps_list", ["1e-4", "1e-4,1e-4"], ids=["one", "repeated"])
def test_exponent_needs_two_distinct_eps(monkeypatch, capsys, eps_list):
    # one distinct eps has no power law: a configuration error before the first map
    import slidekick.poincare

    monkeypatch.setattr(slidekick.poincare, "map_P_epsilon", _must_not_run)
    assert main(["exponent", "--model", "normal-fold", "--profile", "poly(2)", "--eps-list", eps_list,
                 "--probe", "-0.8"]) == 2
    assert capsys.readouterr().err.startswith("config error: a power-law fit needs at least two distinct")


@pytest.mark.parametrize("y0", ["0", "-1", "1e-3"], ids=["zero", "negative", "strip-top"])
def test_section_at_or_below_strip_rejected(monkeypatch, capsys, y0):
    # the fold map checks its section against the strip top eps before stage P
    import slidekick.poincare

    monkeypatch.setattr(slidekick.poincare, "_stage_P", _must_not_run)
    assert main([*POINCARE, "--eps", "1e-3", f"--y0={y0}"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("model_id, probe", [("normal-fold", "0"), ("normal-fold", "2.5"), ("stribeck", "0.996")],
                         ids=["at-fold", "past-fold", "x-plus-up"])
def test_start_at_or_past_fold_rejected(monkeypatch, capsys, model_id, probe):
    # the fold map's domain is the part of {y = y0, x < fold} where X+ points
    # down (Stribeck's points up for x in (0.9938, 1)): checked before stage P
    import slidekick.poincare

    monkeypatch.setattr(slidekick.poincare, "_stage_P", _must_not_run)
    assert main(["poincare", "--model", model_id, "--eps", "1e-3", f"--probe={probe}"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("argv", [
    ("inner", "--p", "0", "--phi-p", "-3"),
    ("inner", "--p", "1", "--phi-p", "3"),
    ("inner", "--p=-1", "--phi-p", "3"),
    ("accept", "--only", "12"),
    ("accept", "--only", "1,12"),
], ids=["p-zero", "p-one", "p-negative", "only-unknown", "only-one-unknown"])
def test_rejected_before_any_solve(monkeypatch, capsys, argv):
    # an inner degree below 2 and an unknown criterion are configuration
    # errors, found before any orbit is shot
    for method in slidekick.integrator._SOLVERS:
        monkeypatch.setitem(slidekick.integrator._SOLVERS, method, _must_not_run)
    assert main(list(argv)) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_accept_only_skips_empty_items(capsys):
    # a trailing comma leaves an empty item, skipped as the float lists skip it
    assert main(["accept", "--only", "1,"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 and rows[1] == "1/1 criteria passed"
    assert rows[0].startswith("[PASS]  1. linear-profile map: ")


def test_programming_error_propagates(monkeypatch):
    # only configuration errors and numerical failures become exit codes
    def broken(args):
        raise TypeError("a bug, not a failure")

    monkeypatch.setattr(slidekick.cli, "cmd_inner", broken)
    with pytest.raises(TypeError):
        main(["inner", "--p", "2", "--phi-p", "-3"])


@pytest.mark.parametrize("argv", [
    ("poincare", "--model", "normal-fold", "--profile", "poly(2)", "--eps", "1e-3,1e-4", "--y0", "0.25",
     "--probe=-0.8,-0.6"),
    ("exponent", "--model", "normal-fold", "--profile", "poly(2)", "--eps-list", "1e-6,3e-6,1e-5,3e-5,1e-4"),
    ("exponent", "--model", "general-fold", "--profile", "poly(2)", "--eps-list", "1e-6,3e-6,1e-5,3e-5,1e-4"),
    ("manifold", "--model", "normal-fold", "--profile", "poly(2)", "--eps", "1e-4"),
    ("simulate", "--model", "normal-fold", "--start=-0.8,0.1", "--until-y", "0.25"),
    # the strip entry and exit rows come from integrate's strip notes
    ("simulate", "--model", "normal-fold", "--start=-0.8,0.1", "--until-y", "0.25", "--eps", "1e-3"),
    ("bifurcate", "--family", "homoclinic", "--eps", "1e-3", "--mu", "0,1"),
], ids=["poincare", "exponent", "exponent-fitted", "manifold", "simulate", "simulate-eps", "bifurcate-homoclinic"])
def test_bitwise_reproducible_csv(tmp_path, argv):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli(*argv, "--out", str(out))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_readme_cli_block_parses():
    # every command of the README's CLI block parses with today's flags and
    # subcommands; nothing is solved
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) >= 10
    parser = slidekick.cli.build_parser()
    for argv in commands:
        assert argv[0] == "slidekick"
        parser.parse_args(argv[1:])


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "slidekick.cli", "models", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
