import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tfim_phases import cli, ising, phases, sweep
from tfim_phases.cli import main
from tfim_phases.errors import RankDeficientError, UnphysicalStateError
from tfim_phases.ising import CouplingRatio
from tfim_phases.phases import PhaseRecord, compute_phases, wrap_angle
from tfim_phases.sweep import (
    CSV_HEADER,
    SweepConfig,
    SweepRecord,
    _unwrap_family,
    emit_csv,
    emit_svg,
    preset,
    read_csv,
    run_sweep,
)

THETA = np.pi / 3


def small_config(**overrides):
    base = dict(
        lambda_min=0.4, lambda_max=1.6, lambda_steps=3,
        r_list=(1,), theta_list=(THETA,),
        kinds=("interferometric",), loop_steps=64,
    )
    base.update(overrides)
    return SweepConfig(**base)


PHASE_FIELDS = ("gamma_int_pair", "gamma_int_single", "delta_gamma", "gamma_u_pair",
                "gamma_u_single", "delta_gamma_u", "convergence_estimate")


def single_point_row(config, lam, r, theta):
    """The row of one (lambda, r, theta) from its own compute_phases call."""
    try:
        record = compute_phases(lam, r, theta, kinds=config.kinds,
                                loop_steps=config.loop_steps, rank_eps=config.rank_eps)
    except tuple(sweep._STATUSES) as exc:
        status = next(s for error, s in sweep._STATUSES.items() if isinstance(exc, error))
        return SweepRecord(lam, r, theta, status=status)
    return SweepRecord(lam, r, theta, record)


class TestRunSweep:
    def test_product_limit_point(self):
        config = small_config(lambda_min=1e-6, lambda_max=1e-6, lambda_steps=1)
        records = run_sweep(config)
        assert len(records) == 1
        assert records[0].status == "ok"
        assert abs(records[0].record.delta_gamma) <= 1e-6

    def test_grid_order(self):
        config = small_config(r_list=(10, 1), theta_list=(np.pi / 4, np.pi / 12))
        records = run_sweep(config)
        keys = [(x.theta, x.r, x.lam) for x in records]
        assert keys == sorted(keys)

    def test_rank_deficient_degrades_to_status_row(self):
        config = small_config(lambda_min=0.01, lambda_max=1.0, lambda_steps=2,
                              kinds=("uhlmann",))
        records = run_sweep(config)
        assert [x.status for x in records] == ["rank_deficient", "ok"]
        assert records[0].record.gamma_u_pair is None
        assert records[1].record.gamma_u_pair is not None

    def test_worker_counts_agree(self):
        config = small_config(kinds=("interferometric", "uhlmann"),
                              lambda_steps=2, loop_steps=64)
        serial = run_sweep(config, workers=1)
        parallel = run_sweep(config, workers=2)
        for a, b in zip(serial, parallel):
            assert a == b

    def test_numerical_errors_become_status_rows(self, monkeypatch):
        raised = [ValueError("bad value"), np.linalg.LinAlgError("singular"),
                  ZeroDivisionError("division"), FloatingPointError("overflow"),
                  UnphysicalStateError("not PSD")]
        statuses = ["numerical_error"] * 4 + ["unphysical_state"]

        def compute_phases(lam, r, theta, **kwargs):
            index = round(lam * 10) - 1
            if index % 2:
                raise raised[index // 2]
            return tuple(PhaseRecord(gamma_int_pair=0.1, gamma_int_single=0.05,
                                     delta_gamma=0.0) for _ in theta)

        monkeypatch.setattr(sweep, "compute_phases", compute_phases)
        config = small_config(lambda_min=0.1, lambda_max=1.1, lambda_steps=11)
        records = run_sweep(config, workers=1)
        expected = ["ok"]
        for status in statuses:
            expected += [status, "ok"]
        assert [x.status for x in records] == expected
        assert all(x.record.delta_gamma == 0.0 for x in records if x.status == "ok")

    def test_repeated_r_unwraps_each_copy_as_its_own_family(self):
        # the interferometric deviation at theta = 1 wraps once across
        # lambda in [0.1, 2], so unwrapping the two copies as one family
        # moves the second copy's curve by 2 pi
        single = run_sweep(small_config(lambda_min=0.1, lambda_max=2.0,
                                        lambda_steps=20, theta_list=(1.0,)))
        assert max(abs(x.delta_gamma_unwrapped - x.record.delta_gamma)
                   for x in single) > np.pi
        doubled = run_sweep(small_config(lambda_min=0.1, lambda_max=2.0,
                                         lambda_steps=20, theta_list=(1.0,),
                                         r_list=(1, 1)))
        assert len(doubled) == 40
        for copy in (doubled[:20], doubled[20:]):
            assert [x.delta_gamma_unwrapped for x in copy] == [
                x.delta_gamma_unwrapped for x in single]

    def test_workers_below_one_rejected_before_any_point(self, monkeypatch):
        def no_point(*args, **kwargs):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(sweep, "compute_phases", no_point)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                run_sweep(small_config(), workers=workers)

    def test_nan_workers_rejected_before_any_point(self, monkeypatch):
        def no_point(*args, **kwargs):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(sweep, "compute_phases", no_point)
        with pytest.raises(ValueError, match="workers must be >= 1, got nan"):
            run_sweep(small_config(), workers=float("nan"))

    def test_non_integer_workers_rejected_before_any_correlator(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a correlator or a grid point ran")

        monkeypatch.setattr(ising, "correlators", no_work)
        monkeypatch.setattr(sweep, "compute_phases", no_work)
        for workers in (2.0, 1.5, True, np.True_):
            with pytest.raises(ValueError, match="workers must be an integer"):
                run_sweep(small_config(), workers=workers)

    def test_numpy_integer_workers_accepted(self):
        config = small_config(lambda_steps=4)
        assert run_sweep(config, workers=np.int64(2)) == run_sweep(config, workers=1)

    def test_pool_has_at_most_one_worker_per_point(self, monkeypatch):
        # a fork-based pool starts all of its workers at once, so the count is
        # read from a stand-in executor that runs the points in this process
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items, chunksize=1):
                return list(map(fn, items))

        monkeypatch.setattr(sweep.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        for workers, points, expected in ((100000, 1, 1), (5, 3, 3), (2, 3, 2)):
            config = small_config(lambda_steps=points)
            assert run_sweep(config, workers=workers) == run_sweep(config, workers=1)
            assert sizes[-1] == expected
        assert len(sizes) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_coupling_rows_equal_float_theta_points(self, workers):
        # lambda = 0.01 is rank deficient for the Uhlmann kind
        config = small_config(lambda_min=0.01, lambda_max=1.5, lambda_steps=3,
                              r_list=(2, 1), theta_list=(np.pi / 3, np.pi / 12),
                              kinds=("interferometric", "uhlmann"))
        expected = []
        for theta in sorted(config.theta_list):
            for r in sorted(config.r_list):
                for lam in config.lambda_grid():
                    try:
                        expected.append(SweepRecord(float(lam), r, theta, compute_phases(
                            lam, r, theta, kinds=config.kinds, loop_steps=config.loop_steps)))
                    except RankDeficientError:
                        expected.append(SweepRecord(float(lam), r, theta, status="rank_deficient"))
        for i in range(0, len(expected), config.lambda_steps):
            family = expected[i:i + config.lambda_steps]
            _unwrap_family(family, "delta_gamma", "delta_gamma_unwrapped")
            _unwrap_family(family, "delta_gamma_u", "delta_gamma_u_unwrapped")
        records = run_sweep(config, workers=workers)
        assert [x.status for x in records] == ["rank_deficient", "ok", "ok"] * 4
        assert records == expected

    def test_one_compute_phases_call_per_coupling(self, monkeypatch):
        calls = []

        def counting_compute_phases(lam, r, theta, **kwargs):
            calls.append((lam, r, tuple(theta)))
            return compute_phases(lam, r, theta, **kwargs)

        monkeypatch.setattr(sweep, "compute_phases", counting_compute_phases)
        config = small_config(r_list=(10, 1), theta_list=(np.pi / 4, 0.0, np.pi / 12))
        records = run_sweep(config)
        assert len(records) == 3 * 2 * 3
        assert calls == [(lam, r, (0.0, np.pi / 12, np.pi / 4))
                         for r in (1, 10) for lam in config.lambda_grid()]

    def test_vanishing_visibility_evaluates_each_theta_alone(self, monkeypatch):
        calls = []

        def counting_compute_phases(lam, r, theta, **kwargs):
            calls.append(tuple(theta))
            return compute_phases(lam, r, theta, **kwargs)

        monkeypatch.setattr(sweep, "compute_phases", counting_compute_phases)
        # the pair's Uhlmann trace at lambda = 0.5 is 0.04 at pi/2, 0.74 at pi/3
        monkeypatch.setattr(phases, "_VISIBILITY_EPS", 0.1)
        thetas = (np.pi / 3, np.pi / 2, 2 * np.pi / 3)
        config = small_config(lambda_min=0.5, lambda_max=0.5, lambda_steps=1,
                              theta_list=thetas, kinds=("uhlmann",))
        records = run_sweep(config)
        assert [x.status for x in records] == ["ok", "vanishing_visibility", "ok"]
        assert len(calls) == 1 + len(thetas)
        assert calls == [thetas] + [(theta,) for theta in thetas]

    def test_nan_correlator_row_is_numerical_error(self, monkeypatch):
        # the correlator bounds reject a NaN magnetization G_0, naming the field
        series = ising._series

        def nan_g0(lo, hi, lam):
            g = series(lo, hi, lam)
            g[-lo] = np.nan
            return g

        monkeypatch.setattr(ising, "_series", nan_g0)
        config = small_config(lambda_min=0.5, lambda_max=0.5, lambda_steps=1)
        assert [x.status for x in run_sweep(config)] == ["numerical_error"]
        with pytest.raises(ValueError, match="^m = nan outside"):
            compute_phases(0.5, 1, THETA)

    def test_correlators_come_from_one_stack(self, monkeypatch):
        stacks = []

        def counting_correlators(r, params):
            stacks.append((tuple(r), tuple(p.lam for p in params)))
            return ising_correlators(r, params)

        def no_point_correlators(*args):
            raise AssertionError("compute_phases computed its own correlators")

        ising_correlators = ising.correlators
        monkeypatch.setattr(ising, "correlators", counting_correlators)
        monkeypatch.setattr(phases, "correlators", no_point_correlators)
        config = small_config(r_list=(10, 1, 10))
        assert {x.status for x in run_sweep(config)} == {"ok"}
        assert stacks == [((1, 10), tuple(config.lambda_grid()))]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_single_point_rows(self, workers):
        # lambda in [0.3, 1.8] runs Miller's branch below about 0.74 and above
        # 1.31 and the outward branch between; the stack's G_k go to r = 10,
        # each single point's to its own r, so values agree to round-off: at
        # most 4.9e-15 apart here (6.3e-14 at r up to 100)
        config = small_config(lambda_min=0.3, lambda_max=1.8, lambda_steps=16,
                              r_list=(10, 3, 10, 1), theta_list=(np.pi / 3, 1.0),
                              kinds=("interferometric", "uhlmann"))
        records = run_sweep(config, workers=workers)
        assert [(x.theta, x.r, x.lam) for x in records] == [
            (theta, r, float(lam)) for theta in sorted(config.theta_list)
            for r in sorted(config.r_list) for lam in config.lambda_grid()]
        for x in records:
            alone = single_point_row(config, x.lam, x.r, x.theta)
            assert x.status == alone.status
            assert x.record.steps_used == alone.record.steps_used
            for name in PHASE_FIELDS:
                got, want = getattr(x.record, name), getattr(alone.record, name)
                assert (got is None) == (want is None)
                if got is not None:
                    assert abs(wrap_angle(got - want)) <= 1e-13
        assert {x.status for x in records} == {"ok"}

    def test_nan_correlators_at_one_coupling_fail_its_rows_alone(self, monkeypatch):
        config = small_config(lambda_min=0.25, lambda_max=0.75, lambda_steps=3,
                              r_list=(3, 1), theta_list=(np.pi / 3, 1.0))
        clean = run_sweep(config)
        series = ising._series

        def nan_g0_at_half(lo, hi, lam):
            g = series(lo, hi, lam)
            if lam == 0.5:
                g[-lo] = np.nan
            return g

        monkeypatch.setattr(ising, "_series", nan_g0_at_half)
        records = run_sweep(config)
        assert [x.status for x in records] == ["ok", "numerical_error", "ok"] * 4
        for x, y in zip(records, clean):
            if x.lam != 0.5:
                assert x.record == y.record and x.status == y.status == "ok"

    def test_nan_correlators_raise_no_warning(self, monkeypatch):
        # a NaN G_k makes the LU of the Toeplitz determinants meet inf - inf;
        # the status row is the whole report, with nothing on stderr
        config = small_config(lambda_min=0.25, lambda_max=0.75, lambda_steps=3,
                              r_list=(3, 1), theta_list=(np.pi / 3, 1.0),
                              kinds=("interferometric", "uhlmann"))
        series = ising._series

        def nan_g0_at_half(lo, hi, lam):
            g = series(lo, hi, lam)
            if lam == 0.5:
                g[-lo] = np.nan
            return g

        monkeypatch.setattr(ising, "_series", nan_g0_at_half)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run_sweep(config)
        assert [x.status for x in records] == ["ok", "numerical_error", "ok"] * 4

    def test_edge_couplings_keep_single_point_statuses(self):
        # lambda = 0 is a pure product state, rank deficient for the Uhlmann
        # kind; lambda = 50 runs the 1/lambda branch
        config = small_config(lambda_min=0.0, lambda_max=50.0, lambda_steps=51,
                              r_list=(10, 1, 10), theta_list=(np.pi / 3, np.pi / 12),
                              kinds=("interferometric", "uhlmann"))
        assert {0.0, 1.0, 50.0} <= set(config.lambda_grid().tolist())
        records = run_sweep(config)
        assert [x.status for x in records] == [
            single_point_row(config, x.lam, x.r, x.theta).status for x in records]
        assert {x.status for x in records} == {"ok", "rank_deficient"}

    def test_unwrap_disabled_copies_principal(self):
        config = small_config(unwrap=False)
        for rec in run_sweep(config):
            assert rec.delta_gamma_unwrapped == rec.record.delta_gamma


class TestUnwrap:
    def test_jump_removed(self):
        values = [3.0, -3.0, -2.8, None, -2.6]
        records = [
            SweepRecord(lam=float(i), r=1, theta=THETA,
                        record=PhaseRecord(delta_gamma=v))
            for i, v in enumerate(values)
        ]
        _unwrap_family(records, "delta_gamma", "delta_gamma_unwrapped")
        got = [x.delta_gamma_unwrapped for x in records]
        assert got[0] == pytest.approx(3.0)
        assert got[1] == pytest.approx(-3.0 + 2 * np.pi)
        assert got[3] is None
        diffs = np.diff([g for g in got if g is not None])
        assert np.abs(diffs).max() < np.pi


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "lambda,r,theta,gamma_int_2site,gamma_int_1site,delta_gamma,"
            "delta_gamma_unwrapped,gamma_u_2site,gamma_u_1site,delta_gamma_u,"
            "delta_gamma_u_unwrapped,steps,quad_tol,status"
        )

    def test_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_ok_row_field_count(self, tmp_path):
        config = small_config(lambda_steps=1, kinds=("interferometric", "uhlmann"))
        records = run_sweep(config)
        path = tmp_path / "one.csv"
        emit_csv(records, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))
        assert lines[1].endswith(",ok")

    def test_rank_deficient_row_has_empty_phases(self, tmp_path):
        config = small_config(lambda_min=0.01, lambda_max=0.01, lambda_steps=1,
                              kinds=("uhlmann",))
        records = run_sweep(config)
        path = tmp_path / "bad.csv"
        emit_csv(records, path)
        fields = path.read_text().strip().split("\n")[1].split(",")
        assert fields[3:11] == [""] * 8
        assert fields[13] == "rank_deficient"

    def test_row_length_checked_against_header(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(CSV_HEADER + "\n0.5,1,1.0,,,,,,,,,0,1e-10\n")
        with pytest.raises(ValueError, match="expected 14 fields, got 13"):
            read_csv(path)

    def test_round_trip_bit_identical(self, tmp_path):
        config = small_config(lambda_steps=3, kinds=("interferometric", "uhlmann"))
        records = run_sweep(config)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(records, p1, quad_tol=config.quad_tol)
        parsed, quad_tol = read_csv(p1)
        emit_csv(parsed, p2, quad_tol=quad_tol)
        assert p1.read_bytes() == p2.read_bytes()
        # the CSV has no convergence column, so none is read back
        assert all(x.record.convergence_estimate is None for x in parsed)


class TestSvg:
    def test_two_families(self, tmp_path):
        config = small_config(r_list=(1, 2))
        records = run_sweep(config)
        path = tmp_path / "plot.svg"
        emit_svg(records, path, y_column="delta_gamma")
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        texts = [t.text for t in root.findall(f"{ns}text")]
        assert len(polylines) == 2
        assert sum(1 for t in texts if t and t.startswith("r=")) == 2

    def test_single_point_family_renders_marker(self, tmp_path):
        config = small_config(lambda_steps=1)
        path = tmp_path / "dot.svg"
        emit_svg(run_sweep(config), path, y_column="delta_gamma")
        root = ET.parse(path).getroot()
        assert len(root.findall("{http://www.w3.org/2000/svg}circle")) == 1

    def test_empty_selection_rejected(self, tmp_path):
        config = small_config()
        records = run_sweep(config)
        with pytest.raises(ValueError):
            emit_svg(records, tmp_path / "x.svg", y_column="delta_gamma_u")

    def test_unknown_column_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg([], tmp_path / "x.svg", y_column="nope")


class TestPresets:
    def test_known_presets_validate(self):
        fig1 = preset("fig1")
        assert fig1.kinds == ("interferometric",)
        assert fig1.theta_list == (np.pi / 3,)
        assert fig1.lambda_min >= 0.1
        fig2 = preset("fig2")
        assert fig2.kinds == ("uhlmann",)
        assert set(fig2.theta_list) == {np.pi / 12, np.pi / 4, np.pi / 3}
        fig3 = preset("fig3")
        assert set(fig3.kinds) == {"interferometric", "uhlmann"}
        assert (fig3.lambda_min, fig3.lambda_max) == (0.8, 1.2)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("badname")


class TestConfigValidation:
    def test_bad_configs(self):
        with pytest.raises(ValueError):
            SweepConfig(lambda_min=-0.1)
        with pytest.raises(ValueError):
            SweepConfig(lambda_steps=0)
        with pytest.raises(ValueError):
            SweepConfig(r_list=())
        with pytest.raises(ValueError):
            SweepConfig(kinds=("nope",))
        with pytest.raises(ValueError):
            SweepConfig(lambda_min=2.0, lambda_max=1.0)

    @pytest.mark.parametrize("field", ["lambda_min", "lambda_max"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_lambda_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_coupling_rejected(self, value):
        with pytest.raises(ValueError, match="lam"):
            CouplingRatio(value)

    @pytest.mark.parametrize("field,value", [
        ("theta_list", (4.0,)),
        ("theta_list", (THETA, -0.1)),
        ("theta_list", (float("nan"),)),
        ("loop_steps", 15),
        ("quad_tol", 0.0),
        ("quad_tol", -1e-10),
        ("rank_eps", 0.0),
        ("rank_eps", -1e-8),
    ])
    def test_bad_loop_and_tolerance_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepConfig(**{field: value})

    @pytest.mark.parametrize("field,wrap,name", [
        ("r_list", lambda x: (1, x), "r_list entry"),
        ("lambda_steps", lambda x: x, "lambda_steps"),
        ("loop_steps", lambda x: x, "loop_steps"),
    ], ids=["r_list", "lambda_steps", "loop_steps"])
    def test_non_integer_counts_rejected_before_any_point(self, monkeypatch, field, wrap,
                                                          name):
        def no_point(*args, **kwargs):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(sweep, "compute_phases", no_point)
        for bad in (2.5, 64.5, 20.0, "20", None, True, np.True_):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                run_sweep(SweepConfig(**{field: wrap(bad)}))

    def test_boundary_values_accepted(self):
        SweepConfig(theta_list=(0.0, np.pi), loop_steps=16)

    def test_sequences_are_stored_as_tuples(self, tmp_path):
        configs = [small_config(r_list=make([2, 1]), theta_list=make([1.0, 0.5]),
                                kinds=make(["interferometric"]))
                   for make in (np.array, list, tuple)]
        csvs = []
        for i, config in enumerate(configs):
            assert all(type(getattr(config, name)) is tuple
                       for name in ("r_list", "theta_list", "kinds"))
            assert config == configs[-1] and hash(config) == hash(configs[-1])
            emit_csv(run_sweep(config), tmp_path / f"{i}.csv")
            csvs.append((tmp_path / f"{i}.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]


class TestCli:
    def test_correlators_command(self, capsys):
        assert main(["correlators", "--lam", "1.0", "--r", "1"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "r,m,c_xx,c_yy,c_zz"
        fields = out[1].split(",")
        assert float(fields[1]) == pytest.approx(2 / np.pi, abs=1e-9)
        assert float(fields[2]) == pytest.approx(2 / np.pi, abs=1e-9)

    def test_phase_command(self, capsys):
        code = main(["phase", "--lam", "1.5", "--r", "1", "--theta", str(THETA),
                     "--kinds", "interferometric"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta_gamma" in out
        assert "gamma_u_pair = n/a" in out

    def test_phase_command_rank_error(self, capsys):
        code = main(["phase", "--lam", "0.01", "--r", "1", "--theta", str(THETA),
                     "--kinds", "uhlmann", "--loop-steps", "64"])
        assert code == 1
        assert "rank_eps" in capsys.readouterr().err

    def test_phase_command_quadrature_error(self, capsys):
        code = main(["phase", "--lam", "1", "--theta", "1", "--quad-tol", "1e-30"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "residual" in err

    @pytest.mark.parametrize("argv", [
        ["correlators", "--lam", "1", "--quad-tol", "1e-30"],
        ["oracle", "--lam", "1", "--n-sites", "4", "--quad-tol", "1e-30"],
    ])
    def test_quadrature_error_is_an_error_line(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "residual" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["correlators", "--lam", "0.5"],
        ["phase", "--lam", "0.5", "--theta", "1"],
        ["oracle", "--lam", "0.5", "--n-sites", "4"],
    ])
    def test_nan_quad_tol_rejected(self, capsys, argv):
        assert main(argv + ["--quad-tol", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: quad_tol must be > 0")
        assert captured.out == ""

    def test_oracle_bad_size_prints_nothing(self, capsys):
        assert main(["oracle", "--lam", "1", "--n-sites", "8", "18"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "n_sites" in captured.err
        assert captured.out == ""

    def test_oracle_bad_r_max_prints_nothing(self, capsys):
        assert main(["oracle", "--lam", "1", "--n-sites", "8", "--r-max", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "r_max" in captured.err
        assert captured.out == ""

    def test_oracle_r_max_beyond_smallest_chain_prints_nothing(self, capsys, monkeypatch):
        def no_diagonalization(*args, **kwargs):
            raise AssertionError("exact diagonalization ran")

        monkeypatch.setattr(ising, "exact_diag_correlators", no_diagonalization)
        # the 8-site chain carries separations up to 4 only
        assert main(["oracle", "--lam", "0.7", "--n-sites", "10", "8", "--r-max", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "r_max" in captured.err
        assert captured.out == ""

    def test_oracle_repeated_size_prints_nothing(self, capsys, monkeypatch):
        def no_diagonalization(*args, **kwargs):
            raise AssertionError("exact diagonalization ran")

        monkeypatch.setattr(ising, "exact_diag_correlators", no_diagonalization)
        # one table row per size: a repeated size would be dropped silently
        assert main(["oracle", "--lam", "1", "--n-sites", "8", "8", "--r-max", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "n_sites" in captured.err
        assert captured.out == ""

    def test_phase_command_next_to_critical_point(self, capsys):
        # the quadrature that the closed form replaced failed for
        # 1e-10 <= |lam - 1| <= 1e-8
        assert main(["phase", "--lam", "0.99999999", "--theta", "1",
                     "--kinds", "interferometric"]) == 0
        assert "delta_gamma = " in capsys.readouterr().out

    @pytest.mark.parametrize("rank_eps", ["-1", "0", "nan"])
    def test_phase_command_rejects_nonpositive_rank_eps(self, capsys, rank_eps):
        code = main(["phase", "--lam", "0", "--theta", "1", "--kinds", "uhlmann",
                     f"--rank-eps={rank_eps}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "rank_eps" in captured.err
        assert "nan" not in captured.out

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_phase_command_rejects_non_finite_lambda(self, capsys, lam):
        code = main(["phase", "--lam", lam, "--theta", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lam" in err

    @pytest.mark.parametrize("theta", ["4.0", "-0.1", "nan"])
    def test_phase_command_rejects_theta_outside_range(self, capsys, theta):
        code = main(["phase", "--lam", "1", "--theta", theta, "--kinds", "interferometric"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "theta" in err

    @pytest.mark.parametrize("flags", [
        ["--kinds", "interferometric", "--theta", "4.0"],
        ["--kinds", "uhlmann", "--theta", "4.0"],
        ["--kinds", "uhlmann", "--loop-steps", "8"],
        ["--kinds", "interferometric", "--quad-tol", "0"],
        ["--kinds", "uhlmann", "--rank-eps=-1e-8"],
        ["--kinds", "interferometric", "--lam-min", "0", "--lam-max", "nan"],
        ["--kinds", "interferometric", "--quad-tol", "1e-13"],
        ["--kinds", "interferometric", "--r", "10001"],
        ["--kinds", "interferometric", "--svg-y", "bogus"],
        ["--kinds", "interferometric", "--workers", "0"],
        ["--kinds", "interferometric", "--workers", "-3"],
    ])
    def test_sweep_rejects_bad_values_before_writing(self, tmp_path, capsys, flags):
        out_csv = tmp_path / "x.csv"
        argv = ["sweep", "--lam-min", "0.5", "--lam-max", "0.5",
                "--lam-steps", "1", "--out", str(out_csv)] + flags
        if "--svg-y" in flags:
            # a value outside the argparse choices is a usage error (exit 2)
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "invalid choice: 'bogus'" in capsys.readouterr().err
        else:
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error: ")
        assert not out_csv.exists()

    @pytest.mark.parametrize("flags", [
        ["--kinds", "uhlmann"],
        ["--kinds", "uhlmann", "--svg-y", "gamma_int_1site"],
        ["--kinds", "interferometric", "--svg-y", "delta_gamma_u_unwrapped"],
    ])
    def test_sweep_rejects_svg_column_no_kind_fills(self, tmp_path, capsys, monkeypatch,
                                                    flags):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out_csv, svg = tmp_path / "x.csv", tmp_path / "x.svg"
        argv = ["sweep", "--lam-min", "0.5", "--lam-max", "1", "--lam-steps", "3",
                "--out", str(out_csv), "--svg", str(svg)] + flags
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --svg-y ")
        assert captured.out == ""
        assert not out_csv.exists() and not svg.exists()

    def test_sweep_all_status_rows_writes_csv_and_no_svg(self, tmp_path, capsys):
        out_csv, svg = tmp_path / "w.csv", tmp_path / "w.svg"
        assert main(["sweep", "--kinds", "uhlmann", "--lam-min", "0.001", "--lam-max", "0.01",
                     "--lam-steps", "2", "--loop-steps", "64", "--out", str(out_csv),
                     "--svg", str(svg), "--svg-y", "delta_gamma_u_unwrapped"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"wrote 2 rows to {out_csv}" in captured.out
        assert ("no records carry a value for 'delta_gamma_u_unwrapped'; SVG not written"
                in captured.out)
        assert [x.status for x in read_csv(out_csv)[0]] == ["rank_deficient"] * 2
        assert not svg.exists()

    def test_preset_all_status_rows_writes_csv_and_no_svg(self, tmp_path, capsys,
                                                          monkeypatch):
        def status_rows(config, workers=1):
            return [SweepRecord(0.05, 1, np.pi / 3, status="rank_deficient")]

        monkeypatch.setattr(cli, "run_sweep", status_rows)
        assert main(["preset", "fig2", "--out-dir", str(tmp_path)]) == 0
        assert ("no records carry a value for 'delta_gamma_u_unwrapped'; SVG not written"
                in capsys.readouterr().out)
        assert (tmp_path / "fig2.csv").exists()
        assert not (tmp_path / "fig2_delta_gamma_u_unwrapped.svg").exists()

    def test_sweep_svg_column_of_requested_kind(self, tmp_path):
        out_csv, svg = tmp_path / "u.csv", tmp_path / "u.svg"
        assert main(["sweep", "--kinds", "uhlmann", "--lam-min", "0.5", "--lam-max", "1",
                     "--lam-steps", "3", "--loop-steps", "64", "--out", str(out_csv),
                     "--svg", str(svg), "--svg-y", "delta_gamma_u_unwrapped"]) == 0
        ET.parse(svg)
        # without --svg the default --svg-y column is not checked
        assert main(["sweep", "--kinds", "uhlmann", "--lam-min", "0.5", "--lam-max", "0.5",
                     "--lam-steps", "1", "--loop-steps", "64", "--out", str(out_csv)]) == 0

    @pytest.mark.parametrize("raw", ["flase", "maybe", "on", ""])
    def test_config_rejects_unknown_unwrap_value(self, tmp_path, capsys, raw):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"unwrap = {raw}\nkinds = interferometric\nlambda_steps = 1\n")
        out_csv = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unwrap" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("TRUE", True), ("Yes", True), ("1", True),
        ("false", False), ("False", False), ("NO", False), ("0", False),
    ])
    def test_config_unwrap_values(self, tmp_path, raw, expected):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"unwrap = {raw}\n")
        assert cli._config_from_file(cfg) == {"unwrap": expected}

    def test_sweep_command_with_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "lambda_min = 0.4\n"
            "lambda_max = 1.6\n"
            "lambda_steps = 2\n"
            "r_list = 1\n"
            f"theta_list = {THETA}\n"
            "kinds = interferometric\n"
            "# a comment line\n"
        )
        out_csv = tmp_path / "out.csv"
        svg = tmp_path / "out.svg"
        code = main(["sweep", "--config", str(cfg), "--out", str(out_csv),
                     "--svg", str(svg), "--svg-y", "delta_gamma"])
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        ET.parse(svg)

    def test_config_kinds_both_matches_flag(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("kinds = both\n")
        args = ["--lam-min", "0.5", "--lam-max", "1.5", "--lam-steps", "2", "--r", "1",
                "--theta", str(THETA), "--loop-steps", "64"]
        assert main(["sweep", "--config", str(cfg), *args,
                     "--out", str(tmp_path / "file.csv")]) == 0
        assert main(["sweep", "--kinds", "both", *args, "--out", str(tmp_path / "flag.csv")]) == 0
        assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_sweep_flags_override_config(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("lambda_steps = 2\nkinds = interferometric\n")
        out_csv = tmp_path / "b.csv"
        code = main(["sweep", "--config", str(cfg), "--lam-min", "0.5",
                     "--lam-max", "0.5", "--lam-steps", "1",
                     "--r", "1", "--theta", str(THETA), "--out", str(out_csv)])
        assert code == 0
        assert len(out_csv.read_text().strip().split("\n")) == 2

    def test_sweep_requires_output(self, capsys):
        code = main(["sweep", "--lam-min", "0.5", "--lam-max", "0.5",
                     "--lam-steps", "1", "--kinds", "interferometric"])
        assert code == 1
        assert "output path" in capsys.readouterr().err

    def test_sweep_unwritable_path(self, tmp_path, capsys):
        code = main(["sweep", "--lam-min", "0.5", "--lam-max", "0.5",
                     "--lam-steps", "1", "--kinds", "interferometric",
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert code == 1

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_unknown_preset_name_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["preset", "badname"])

    def test_preset_command_writes_outputs(self, tmp_path):
        assert main(["preset", "fig1", "--out-dir", str(tmp_path)]) == 0
        csv_lines = (tmp_path / "fig1.csv").read_text().strip().split("\n")
        assert csv_lines[0] == CSV_HEADER
        assert len(csv_lines) == 1 + 39 * 4
        ET.parse(tmp_path / "fig1_delta_gamma_unwrapped.svg")

    def test_preset_rejects_workers_below_one(self, tmp_path, capsys):
        assert main(["preset", "fig1", "--out-dir", str(tmp_path), "--workers", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "workers" in err
        assert not (tmp_path / "fig1.csv").exists()

    def test_oracle_command(self, capsys):
        code = main(["oracle", "--lam", "0.5", "--n-sites", "6", "8", "--r-max", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "m_ed" in out
        assert "monotone" in out
