import numpy as np
import pytest
from scipy.stats import chisquare

from ulmimo import geometry as geo
from ulmimo.errors import InvalidInputError
from ulmimo.rng import seed_substream
from ulmimo.scenario import parse_scenario

SQ3 = np.sqrt(3.0)


class TestHexLayout:
    def test_single_cell(self):
        layout = geo.hex_layout(1, 500.0)
        assert layout.num_cells == 1
        assert np.allclose(layout.centers, 0.0)

    def test_seven_cell_ring_distance(self):
        layout = geo.hex_layout(7, 1000.0)
        d = np.linalg.norm(layout.centers[1:], axis=1)
        assert np.allclose(d, SQ3 * 1000.0)
        assert np.allclose(d, 1732.0508, atol=1e-3)

    # True built a 1 m layout
    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf, True, "1000",
                                        None])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(InvalidInputError):
            geo.hex_layout(7, radius)

    def test_unsupported_count(self):
        with pytest.raises(InvalidInputError):
            geo.hex_layout(3, 1000.0)

    @pytest.mark.parametrize("B", [True, 1.0, 7.0])
    def test_non_integer_count_refused(self, B):
        with pytest.raises(InvalidInputError, match="B must be an integer"):
            geo.hex_layout(B, 1000.0)

    def test_cells_tile_without_overlap(self):
        layout = geo.hex_layout(7, 1000.0)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2600, 2600, size=(20_000, 2))
        counts = np.zeros(len(pts), dtype=int)
        for center in layout.centers:
            counts += geo.points_in_hex(pts, center, layout.radius_m)
        assert counts.max() <= 1
        # and the layout actually covers the central region
        near = np.linalg.norm(pts, axis=1) < 800.0
        assert counts[near].all()


def hexagon_edge_lines(R):
    """(start, unit outward normal) of each edge of the hexagon with vertices
    R (cos 60k, sin 60k), counterclockwise, around the origin."""
    angles = np.deg2rad(60.0 * np.arange(7))
    v = R * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    e = np.diff(v, axis=0)
    # inside lies left of each counterclockwise edge
    return v[:-1], np.stack([e[:, 1], -e[:, 0]], axis=1) / np.hypot(*e.T)[:, None]


def outward_distance(rel, R):
    """Largest signed distance of each offset from the edge lines: at most 0
    inside the hexagon."""
    starts, normals = hexagon_edge_lines(R)
    return np.max([(rel - a) @ n for a, n in zip(starts, normals)], axis=0)


class TestPointsInHex:
    """points_in_hex against the hexagon built from its vertices."""

    @pytest.mark.parametrize("rows", [False, True], ids=["center", "rows"])
    def test_matches_the_vertex_hexagon(self, rows):
        R, rng = 1000.0, np.random.default_rng(34)
        for center in geo.hex_layout(7, R).centers:
            pts = center + rng.uniform(-1.1 * R, 1.1 * R, size=(20_000, 2))
            inside = outward_distance(pts - center, R) <= 1e-9
            assert 0.45 < inside.mean() < 0.65  # both sides are sampled
            c = np.repeat(center[None], len(pts), axis=0) if rows else center
            assert np.array_equal(geo.points_in_hex(pts, c, R), inside)

    @pytest.mark.parametrize("push, inside", [(0.5e-9, True), (2e-9, False)])
    def test_edge_midpoints_and_the_slack(self, push, inside):
        R = 1000.0
        starts, normals = hexagon_edge_lines(R)
        mids = 0.5 * (starts + np.roll(starts, -1, axis=0))
        for center in geo.hex_layout(7, R).centers:
            pts = center + mids + push * normals
            assert (geo.points_in_hex(pts, center, R) == inside).all()

    @pytest.mark.parametrize("rows", [False, True], ids=["center", "rows"])
    def test_arguments_left_unwritten(self, rows):
        # the test works in place on its own offsets, never on the caller's
        R, center = 1000.0, geo.hex_layout(7, 1000.0).centers[3]
        pts = center + np.random.default_rng(35).uniform(-R, R, size=(500, 2))
        c = np.repeat(center[None], len(pts), axis=0) if rows else center
        pts_before, c_before = pts.copy(), c.copy()
        geo.points_in_hex(pts, c, R)
        assert pts.tobytes() == pts_before.tobytes()
        assert c.tobytes() == c_before.tobytes()

    def test_integer_points_decide_as_floats(self):
        pts = np.array([[0, 0], [0, 866], [0, 867], [750, 433], [751, 433],
                        [-1000, 0], [1001, 0]])
        inside = geo.points_in_hex(pts, np.array([0, 0]), 1000.0)
        assert inside.tolist() == [True, True, False, True, False, True, False]
        assert np.array_equal(
            inside, geo.points_in_hex(pts.astype(float), np.zeros(2), 1000.0))

    @pytest.mark.parametrize("points_shape, center_shape", [
        ((4, 3), (2,)), ((4, 2), (3,)), ((4, 1), (2,)), ((4, 3), (4, 3))])
    def test_last_axis_not_two_refused(self, points_shape, center_shape):
        # (4, 1) points broadcast against the centre; the rest raised numpy's
        # ValueError
        with pytest.raises(InvalidInputError, match="last axis of 2"):
            geo.points_in_hex(np.zeros(points_shape), np.zeros(center_shape),
                              1000.0)


class TestDropUsers:
    def test_deterministic(self):
        layout = geo.hex_layout(7, 1000.0)
        a = geo.drop_users(layout, 13, seed_substream(5, "drop"), 35.0)
        b = geo.drop_users(layout, 13, seed_substream(5, "drop"), 35.0)
        assert np.array_equal(a.positions, b.positions)

    def test_positions_inside_cells_and_outside_exclusion(self):
        layout = geo.hex_layout(7, 1000.0)
        drop = geo.drop_users(layout, 200, seed_substream(6, "drop"), 35.0)
        for j, center in enumerate(layout.centers):
            assert geo.points_in_hex(drop.positions[j], center, 1000.0).all()
            d = np.linalg.norm(drop.positions[j] - center, axis=1)
            assert (d >= 35.0).all()

    @pytest.mark.parametrize("exclusion_m", [np.nan, -1.0, 867.0])
    def test_exclusion_outside_cell_refused(self, exclusion_m):
        with pytest.raises(InvalidInputError, match="apothem"):
            geo.drop_users(geo.hex_layout(7, 1000.0), 5, seed_substream(0, "x"),
                           exclusion_m)

    @pytest.mark.parametrize("K", [0, -1])
    def test_user_count_below_one_refused(self, K):
        with pytest.raises(InvalidInputError, match="K must be at least 1"):
            geo.drop_users(geo.hex_layout(7, 1000.0), K, seed_substream(0, "x"),
                           35.0)

    @pytest.mark.parametrize("K", [2.5, 2.0, True])
    def test_non_integer_user_count_refused(self, K):
        with pytest.raises(InvalidInputError, match="K must be an integer"):
            geo.drop_users(geo.hex_layout(7, 1000.0), K, seed_substream(0, "x"),
                           35.0)

    # the sampler jumps the stream back by a count of 64-bit PCG64 draws;
    # other bit generators lack the jump or count it in other units
    @pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                               np.random.Philox,
                                               np.random.SFC64])
    def test_non_pcg64_generator_refused(self, bit_generator):
        rng = np.random.Generator(bit_generator(0))
        with pytest.raises(InvalidInputError, match="PCG64"):
            geo.drop_users(geo.hex_layout(7, 1000.0), 5, rng, 35.0)
        # refused before any draw
        assert rng.random() == np.random.Generator(bit_generator(0)).random()

    def test_short_cell_finishes_alone(self, monkeypatch):
        """A block's first round tests n candidates per cell; after its first
        short cell, that cell's later rounds test only its own candidates,
        also when its first round kept none, and the next block starts at
        the cell after it. Positions and stream never show the difference,
        so the candidate count is checked against the per-cell loop's rounds."""
        # at the apothem about 6% of candidates pass, so a K = 1 cell keeps
        # none of its first 8 about 60% of the time
        layout, exclusion_m = geo.hex_layout(7, 1000.0), SQ3 / 2.0 * 1000.0
        tested = []
        points_in_hex = geo.points_in_hex

        def counted(points, center, radius_m):
            tested.append((len(points), tuple(np.atleast_2d(center)[0])))
            return points_in_hex(points, center, radius_m)

        monkeypatch.setattr(geo, "points_in_hex", counted)
        for seed in range(20):
            tested.clear()
            sequential_drop(layout, 1, seed_substream(seed, "alone"), exclusion_m)
            rounds = [sum(c == tuple(center) for _, c in tested)
                      for center in layout.centers]
            starts = [0] + [j + 1 for j in range(6) if rounds[j] > 1]
            expected = 8 * sum(7 - j for j in starts) + 8 * (sum(rounds) - 7)
            tested.clear()
            geo.drop_users(layout, 1, seed_substream(seed, "alone"), exclusion_m)
            assert sum(n for n, _ in tested) == expected, seed

    def test_uniformity_chi_square_sextants(self):
        layout = geo.hex_layout(1, 1000.0)
        drop = geo.drop_users(layout, 100_000, seed_substream(7, "drop"),
                              35.0)
        angles = np.arctan2(drop.positions[0, :, 1], drop.positions[0, :, 0])
        sextant = ((angles + np.pi) // (np.pi / 3)).astype(int).clip(0, 5)
        counts = np.bincount(sextant, minlength=6)
        assert chisquare(counts).pvalue > 0.01


def sequential_drop(layout, K, rng, exclusion_m):
    """The per-cell rejection loop drop_users must reproduce bit for bit."""
    R = layout.radius_m
    pos = np.empty((layout.num_cells, K, 2))
    for j, center in enumerate(layout.centers):
        got = 0
        while got < K:
            n_draw = max(2 * (K - got), 8)
            cand = center + rng.uniform(-R, R, size=(n_draw, 2))
            keep = geo.points_in_hex(cand, center, R)
            keep &= np.hypot(cand[:, 0] - center[0],
                             cand[:, 1] - center[1]) >= exclusion_m
            cand = cand[keep]
            take = min(K - got, cand.shape[0])
            pos[j, got:got + take] = cand[:take]
            got += take
    return pos


class TestDropMatchesSequentialLoop:
    """Block draws, rewinds included, leave positions and generator state
    exactly where the per-cell loop leaves them."""

    @staticmethod
    def check(B, K, exclusion_m, seeds):
        layout = geo.hex_layout(B, 1000.0)
        for seed in seeds:
            ref_rng = seed_substream(seed, "oracle", K)
            got_rng = seed_substream(seed, "oracle", K)
            ref = sequential_drop(layout, K, ref_rng, exclusion_m)
            got = geo.drop_users(layout, K, got_rng, exclusion_m).positions
            assert got.tobytes() == ref.tobytes(), (B, K, exclusion_m, seed)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    # 35 m is the frozen disk; at the apothem about 6% of candidates pass,
    # so nearly every block has a short cell and rewinds
    @pytest.mark.parametrize("exclusion_m", [35.0, 400.0, SQ3 / 2.0 * 1000.0])
    @pytest.mark.parametrize("B", [1, 7])
    def test_small_cells(self, B, exclusion_m):
        for K in range(1, 61):
            self.check(B, K, exclusion_m, range(K % 16, 64, 16))

    @pytest.mark.parametrize("B", [1, 7])
    def test_frozen_disk_many_seeds(self, B):
        for K in (1, 4, 10, 25, 50):
            self.check(B, K, 35.0, range(60))

    # K = 300 splits seven cells into blocks of six and one; from K = 2048,
    # whose first round is exactly _BLOCK_POINTS candidates, each cell draws
    # alone, and from K = 2049 its rounds are drawn in pieces; K = 10,000 is
    # the rates table's drop law. At the frozen 35 m disk (about 65% of
    # candidates pass) a cell fills in its first round's first pieces and
    # the stream skips the rest; at 860 m (about 7%) every round comes up
    # short and the next one continues in pieces
    @pytest.mark.parametrize("exclusion_m", [35.0, 860.0])
    @pytest.mark.parametrize("K", [300, 2048, 2049, 4096, 5000, 6000, 10_000])
    @pytest.mark.parametrize("B", [1, 7])
    def test_multi_block(self, B, K, exclusion_m):
        self.check(B, K, exclusion_m, range(3))


class TestExclusionDecision:
    """drop_users' exclusion test calls hypot only inside the disk's
    bounding square; every decision must equal hypot(x, y) >= e."""

    @staticmethod
    def adversarial_rows(e):
        up, down = np.nextafter(e, np.inf), np.nextafter(e, 0.0)
        tiny = np.nextafter(0.0, 1.0)
        t = np.linspace(0.0, 2.0 * np.pi, 721)
        circle = np.stack([e * np.cos(t), e * np.sin(t)], axis=1)
        neighbours = [circle]
        for axis in (0, 1):
            for toward in (-np.inf, np.inf):
                moved = circle.copy()
                moved[:, axis] = np.nextafter(moved[:, axis], toward)
                neighbours.append(moved)
        edges = [(x, 0.0) for x in (e, -e, up, -up, down, -down)]
        edges += [(y, x) for x, y in edges]
        corners = [(sx * a, sy * b) for sx in (1, -1) for sy in (1, -1)
                   for a in (e, down) for b in (e, down, up)]
        odd = [(0.0, 0.0), (-0.0, 0.0), (tiny, 0.0), (tiny, tiny),
               (-tiny, 3 * tiny), (-tiny, -0.0), (1e-310, 1e-310),
               (-1e-310, -1e-310), (np.nan, 0.0), (np.nan, np.inf),
               (np.inf, np.nan), (-np.inf, np.nan), (np.nan, -np.inf),
               (-np.inf, -0.0), (-0.0, -np.inf)]
        return np.vstack([*neighbours, edges, corners, odd])

    @pytest.mark.parametrize("e", [
        35.0, 800.0, SQ3 / 2.0 * 1000.0, 1.0, 0.0,
        np.nextafter(0.0, 1.0), 1e-310])
    def test_adversarial_rows_decide_as_hypot(self, e):
        rel = self.adversarial_rows(e)
        want = np.hypot(rel[:, 0], rel[:, 1]) >= e
        # the test overwrites its argument with the magnitudes, which decide
        # as the signed rows do
        overwritten = rel.copy()
        assert np.array_equal(geo._outside_disk(overwritten, e), want)
        assert np.array_equal(overwritten, np.abs(rel), equal_nan=True)
        assert np.array_equal(geo._outside_disk(overwritten, e), want)

    def test_hypot_is_never_below_the_larger_coordinate(self):
        # the shortcut's premise: a row outside the square is outside the
        # disk. Magnitudes span the normal range down to subnormals.
        rng = np.random.default_rng(11)
        mantissa = rng.uniform(-1.0, 1.0, size=(1_000_000, 2))
        rel = np.ldexp(mantissa, rng.integers(-1080, 1000, size=(1_000_000, 1)))
        rel[::2, 1] *= rng.uniform(0.0, 1.0, size=500_000)
        h = np.hypot(rel[:, 0], rel[:, 1])
        assert np.all(h >= np.maximum(np.abs(rel[:, 0]), np.abs(rel[:, 1])))


class TestPathloss:
    def test_reference_distance_frozen_constant(self):
        # urban formula at the frozen parameter set, evaluated by hand once:
        # 46.3 + 33.9 log10(1900) - 13.82 log10(30) - 0.045088 at 1 km
        params = geo.Cost231Params()
        assert geo.cost231_pathloss_db(1000.0, params) == pytest.approx(
            136.99084, abs=1e-4)

    def test_doubling_slope(self):
        params = geo.Cost231Params()
        slope = 44.9 - 6.55 * np.log10(30.0)
        got = (geo.cost231_pathloss_db(2000.0, params)
               - geo.cost231_pathloss_db(1000.0, params))
        assert got == pytest.approx(slope * np.log10(2.0), rel=1e-12)
        assert got == pytest.approx(10.6043, abs=1e-3)

    def test_monotone_in_distance(self):
        params = geo.Cost231Params()
        d = np.linspace(35.0, 3000.0, 200)
        pl = geo.cost231_pathloss_db(d, params)
        assert (np.diff(pl) > 0).all()

    @pytest.mark.parametrize("kwargs", [
        {}, {"carrier_freq_mhz": 1500.0, "bs_height_m": 200.0, "ms_height_m": 10.0},
        {"carrier_freq_mhz": 1733.3, "bs_height_m": 47.0, "ms_height_m": 1.0}])
    def test_cached_terms_match_inline_formula(self, kwargs):
        params = geo.Cost231Params(**kwargs)
        f, hb, hm = params.carrier_freq_mhz, params.bs_height_m, params.ms_height_m
        d = np.linspace(35.0, 3000.0, 101)
        a_hm = (1.1 * np.log10(f) - 0.7) * hm - (1.56 * np.log10(f) - 0.8)
        inline = (46.3 + 33.9 * np.log10(f) - 13.82 * np.log10(hb) - a_hm
                  + (44.9 - 6.55 * np.log10(hb)) * np.log10(d / 1000.0))
        assert geo.cost231_pathloss_db(d, params).tobytes() == inline.tobytes()

    def test_repeatable(self):
        params = geo.Cost231Params()
        assert (geo.cost231_pathloss_db(777.0, params)
                == geo.cost231_pathloss_db(777.0, params))

    def test_argument_left_unwritten(self):
        d = np.linspace(35.0, 3000.0, 101)
        before = d.copy()
        geo.cost231_pathloss_db(d, geo.Cost231Params())
        assert d.tobytes() == before.tobytes()

    @pytest.mark.parametrize("d", [777.0, np.array(777.0)], ids=["float", "0-d"])
    def test_scalar_distance_gives_a_float(self, d):
        pl = geo.cost231_pathloss_db(d, geo.Cost231Params())
        assert type(pl) is float
        assert pl == geo.cost231_pathloss_db(np.array([777.0]),
                                             geo.Cost231Params())[0]

    def test_below_exclusion_rejected(self):
        with pytest.raises(InvalidInputError):
            geo.cost231_pathloss_db(10.0, geo.Cost231Params())

    # a NaN passed the exclusion test and gave a NaN path loss, an infinity
    # an infinite one
    @pytest.mark.parametrize("d", [
        np.nan, np.inf, -np.inf, np.array([500.0, np.nan, 800.0]),
        np.array([[500.0], [np.inf]])],
        ids=["nan", "inf", "-inf", "array-nan", "array-inf"])
    def test_non_finite_distance_refused(self, d):
        with pytest.raises(InvalidInputError,
                           match="^distance must be finite") as refused:
            geo.cost231_pathloss_db(d, geo.Cost231Params())
        assert refused.value.exit_code == 2

    @pytest.mark.parametrize("field", [
        "cell_radius_m", "tx_power_dbm", "noise_power_dbm", "noise_bandwidth_hz",
        "carrier_freq_mhz", "bs_height_m", "ms_height_m", "shadowing_sigma_db",
        "exclusion_radius_m"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(InvalidInputError):
            geo.Cost231Params(**{field: value})

    # built directly, past the parser: the bools were accepted, the
    # string and None raised TypeError
    @pytest.mark.parametrize("field, value", [
        ("tx_power_dbm", True), ("shadowing_sigma_db", True),
        ("cell_radius_m", "x"), ("bs_height_m", None)])
    def test_field_not_a_real_number_refused(self, field, value):
        with pytest.raises(InvalidInputError,
                           match=f"^{field} must be a real number"):
            geo.Cost231Params(**{field: value})

    def test_validity_ranges_enforced(self):
        with pytest.raises(InvalidInputError):
            geo.Cost231Params(carrier_freq_mhz=900.0)
        with pytest.raises(InvalidInputError):
            geo.Cost231Params(bs_height_m=10.0)


class TestLargeScaleGains:
    def _drop_at(self, positions):
        layout = geo.hex_layout(7, 1000.0)
        pos = np.zeros((7, positions.shape[0], 2))
        pos[:] = layout.centers[:, None, :]  # placeholder, overwritten below
        pos[0] = positions
        for j in range(1, 7):
            pos[j] = layout.centers[j] + np.array([100.0, 50.0])
        return geo.UserDrop(positions=pos, layout=layout)

    def test_equidistant_users_equal_gain(self):
        drop = self._drop_at(np.array([[300.0, 0.0], [0.0, 300.0]]))
        gains = geo.large_scale_gains(drop, geo.Cost231Params(),
                                      seed_substream(8, "sh"))
        assert gains[0, 0] == pytest.approx(gains[0, 1], rel=1e-12)

    def test_gain_matches_link_budget_formula(self):
        params = geo.Cost231Params(noise_bandwidth_hz=760.0)
        drop = self._drop_at(np.array([[500.0, 0.0]]))
        gains = geo.large_scale_gains(drop, params, seed_substream(9, "sh"))
        pl = geo.cost231_pathloss_db(500.0, params)
        expected = 10 ** (-pl / 10) * 10 ** (23.0 / 10) / (10 ** (-174.0 / 10) * 760.0)
        assert gains[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_gain_ratio_equals_pathloss_difference(self):
        # a cell-edge user's own-BS vs interferer-BS gains differ by exactly
        # the path-loss difference of the two distances
        layout = geo.hex_layout(7, 1000.0)
        edge = layout.centers[1] / 2.0  # midpoint toward neighbour 1
        pos = np.zeros((7, 1, 2))
        pos[0, 0] = edge
        for j in range(1, 7):
            pos[j, 0] = layout.centers[j]
        drop = geo.UserDrop(positions=pos, layout=layout)
        params = geo.Cost231Params()
        gains = geo.large_scale_gains(drop, params, seed_substream(10, "sh"))
        d_center = np.linalg.norm(edge)
        d_neighbor = np.linalg.norm(layout.centers[1])
        delta_db = (geo.cost231_pathloss_db(d_neighbor, params)
                    - geo.cost231_pathloss_db(d_center, params))
        assert 10 * np.log10(gains[0, 0] / gains[1, 0]) == pytest.approx(
            delta_db, rel=1e-9)

    # a NaN position gave all-NaN gains; hypot(inf, nan) is inf
    @pytest.mark.parametrize("xy", [
        (np.nan, 100.0), (400.0, np.inf), (np.inf, np.nan)],
        ids=["nan", "inf", "inf-nan"])
    def test_non_finite_position_refused(self, xy):
        drop = self._drop_at(np.array([[300.0, 0.0], xy]))
        with pytest.raises(InvalidInputError, match="^distance must be finite"):
            geo.large_scale_gains(drop, geo.Cost231Params(),
                                  seed_substream(8, "sh"))

    def test_shadowing_off_is_deterministic(self):
        drop = self._drop_at(np.array([[400.0, 100.0]]))
        g1 = geo.large_scale_gains(drop, geo.Cost231Params(), seed_substream(1, "a"))
        g2 = geo.large_scale_gains(drop, geo.Cost231Params(), seed_substream(2, "b"))
        assert np.array_equal(g1, g2)

    def test_shadowing_reproducible_per_seed(self):
        drop = self._drop_at(np.array([[400.0, 100.0]]))
        params = geo.Cost231Params(shadowing_sigma_db=8.0)
        g1 = geo.large_scale_gains(drop, params, seed_substream(3, "s"))
        g2 = geo.large_scale_gains(drop, params, seed_substream(3, "s"))
        g3 = geo.large_scale_gains(drop, params, seed_substream(4, "s"))
        assert np.array_equal(g1, g2)
        assert not np.array_equal(g1, g3)

    def test_gain_above_unit_path_gain_is_clamped(self, caplog):
        # a parsable link budget whose path gain exceeds 1 next to the mast
        params = geo.Cost231Params(carrier_freq_mhz=1500.0, bs_height_m=200.0,
                                   ms_height_m=10.0, exclusion_radius_m=0.1)
        drop = self._drop_at(np.array([[0.2, 0.0]]))
        with caplog.at_level("WARNING", logger=geo.__name__):
            gains = geo.large_scale_gains(drop, params, seed_substream(11, "sh"))
        ratio = params.tx_power_mw / params.noise_power_mw
        assert gains[0, 0] == ratio
        assert ratio == pytest.approx(5.0119e19, rel=1e-4)
        assert [r.getMessage() for r in caplog.records] == [
            "clamped 1 link gains at unit path gain"]
        d = np.hypot(*drop.positions[1:, 0].T)
        pl = geo.cost231_pathloss_db(d, params)
        assert gains[1:, 0] == pytest.approx(10 ** (-pl / 10) * ratio,
                                             rel=1e-12)

    # B K = 4095, 4096 and 4097 users sit at the piece boundary, 70,000 is
    # the rates table's drop law; the clamped budget's path gain exceeds 1
    # at the mast, where one user is put
    @pytest.mark.parametrize("params", [
        geo.Cost231Params(), geo.Cost231Params(shadowing_sigma_db=8.0),
        geo.Cost231Params(carrier_freq_mhz=1500.0, bs_height_m=200.0,
                          ms_height_m=10.0, exclusion_radius_m=0.1,
                          shadowing_sigma_db=4.0)],
        ids=["plain", "shadowed", "clamped"])
    @pytest.mark.parametrize("B, K", [(7, 585), (1, 4096), (1, 4097), (7, 10_000)])
    def test_pieces_match_whole_array_arithmetic(self, B, K, params, caplog):
        layout = geo.hex_layout(B, params.cell_radius_m)
        drop = geo.drop_users(layout, K, seed_substream(12, "d", K),
                              params.exclusion_radius_m)
        clamps = params.exclusion_radius_m < 1.0
        if clamps:
            drop.positions[0, 0] = [0.05, 0.0]
        before = drop.positions.copy()
        with caplog.at_level("WARNING", logger=geo.__name__):
            gains = geo.large_scale_gains(drop, params, seed_substream(12, "s"))
        assert len(caplog.records) == clamps
        assert drop.positions.tobytes() == before.tobytes()
        rng = seed_substream(12, "s")
        bs1 = layout.centers[0]
        dist = np.hypot(drop.positions[..., 0] - bs1[0],
                        drop.positions[..., 1] - bs1[1])
        pl_db = (params.pathloss_intercept_db + params.pathloss_slope_db
                 * np.log10(np.maximum(dist, params.exclusion_radius_m) / 1000.0))
        path_gain = 10.0 ** (-pl_db / 10.0)
        if params.shadowing_sigma_db:
            shadow_db = params.shadowing_sigma_db * rng.standard_normal(pl_db.shape)
            path_gain = path_gain * 10.0 ** (shadow_db / 10.0)
        assert (path_gain[0, 0] > 1.0) == clamps
        path_gain = np.minimum(path_gain, 1.0)
        expected = path_gain * (params.tx_power_mw / params.noise_power_mw)
        assert gains.tobytes() == expected.tobytes()


class TestWeakestGainBound:
    """The radius and shadowing bounds put the weakest link gain, a user at
    the ring's edge (sqrt(3) + 1) R out under a 10-sigma fade, at 1e-150."""

    @staticmethod
    def edge_gain_db(params):
        edge = (SQ3 + 1.0) * params.cell_radius_m
        return (10 * np.log10(params.tx_power_mw / params.noise_power_mw)
                - geo.cost231_pathloss_db(edge, params))

    def test_shadowing_bound(self):
        sigma = (self.edge_gain_db(geo.Cost231Params()) + 1500.0) / 10.0
        geo.Cost231Params(shadowing_sigma_db=sigma * (1 - 1e-9))
        with pytest.raises(InvalidInputError, match="shadowing_sigma_db"):
            geo.Cost231Params(shadowing_sigma_db=sigma * (1 + 1e-9))
        # the deepest fade the bound allows keeps the gain's square normal
        faded = 10 ** ((self.edge_gain_db(geo.Cost231Params()) - 10 * sigma) / 10)
        assert faded ** 2 >= np.finfo(float).tiny

    def test_radius_bound(self):
        # the edge gain falls by the path-loss slope per decade of radius
        params = geo.Cost231Params()
        decades = (self.edge_gain_db(params) + 1500.0) / params.pathloss_slope_db
        radius = params.cell_radius_m * 10 ** decades
        geo.Cost231Params(cell_radius_m=radius * (1 - 1e-9))
        with pytest.raises(InvalidInputError, match="cell_radius_m"):
            geo.Cost231Params(cell_radius_m=radius * (1 + 1e-9))


class TestIdealizedGains:
    def test_seven_cell_total(self):
        dist = geo.idealized_gains(7, 0.01)
        assert dist.num_samples == 1
        assert dist.total[0] == pytest.approx(1.06)

    def test_single_cell(self):
        dist = geo.idealized_gains(1, 0.5)
        assert dist.gains.shape[1] == 1
        assert dist.cross_est_gain[0] == 0.0

    def test_effective_pilot_power(self):
        dist = geo.idealized_gains(7, 0.1)
        assert dist.cross_est_gain[0] == pytest.approx(6 * 0.01 / 1.6)

    def test_range_enforced(self):
        with pytest.raises(InvalidInputError):
            geo.idealized_gains(7, 1.5)
        with pytest.raises(InvalidInputError, match="B must be at least 1"):
            geo.idealized_row(0, 0.1)
        # the string raised TypeError, and the bool was refused only as 1
        for beta in ("0.1", True):
            with pytest.raises(InvalidInputError,
                               match="^beta_other must be a real number"):
                geo.idealized_row(7, beta)

    @pytest.mark.parametrize("call", [
        lambda: geo.idealized_row(2.0, 0.1), lambda: geo.idealized_row(True, 0.1),
        lambda: geo.idealized_gains(True, 0.1)],
        ids=["row-float", "row-bool", "law-bool"])
    def test_non_integer_cell_count_refused(self, call):
        with pytest.raises(InvalidInputError, match="B must be an integer"):
            call()


class TestDropLawMemory:
    """The rates table's 10,000-drop law is built in pieces: its traced
    peak, about 1.67 MiB, is the positions (1.07 MiB), the gains (0.53 MiB)
    and one piece's temporaries of at most _BLOCK_POINTS candidates or
    distances. A cell's whole 20,000-candidate round, or a whole-law
    y-offset or path-loss array (0.53 MiB each), pushes it past 1.8 MiB;
    the law built with both read 2.16 MiB."""

    @pytest.mark.parametrize("seed", [0, 4099])
    def test_traced_peak(self, seed, traced_peak):
        scenario = parse_scenario("cost231-7cell")
        gains, peak = traced_peak(scenario.gain_matrix, 10_000,
                                  seed_substream(seed, "drops"))
        assert gains.shape == (7, 10_000)
        assert peak <= 1.8 * 2**20

    def test_rates_command_traced_peak(self, tmp_path, traced_peak):
        """A warm `rates` run on the drop law traces about 1.69 MiB: the
        drop law sets its peak (2.17 MiB with whole rounds and arrays)."""
        from ulmimo import cli

        def rates(out):
            return cli.main(["rates", "--scenario", "cost231-7cell",
                             "--out", str(tmp_path / out)])
        # a first call also traces the package's one-time set-up
        assert rates("warm") == 0
        code, peak = traced_peak(rates, "traced")
        assert code == 0
        assert peak <= 1.8 * 2**20


def cost231_gain_rows(layout, params, n, rng):
    """(n, B) joint gain samples: one independent user per cell, n drops."""
    drop = geo.drop_users(layout, n, rng, exclusion_m=params.exclusion_radius_m)
    return geo.large_scale_gains(drop, params, rng).T


class TestGainRows:
    def test_shape_and_determinism(self):
        layout = geo.hex_layout(7, 1000.0)
        params = geo.Cost231Params(noise_bandwidth_hz=760.0)
        a = cost231_gain_rows(layout, params, 50, seed_substream(11, "r"))
        b = cost231_gain_rows(layout, params, 50, seed_substream(11, "r"))
        assert a.shape == (50, 7)
        assert np.array_equal(a, b)
        assert (a > 0).all()

    def test_own_cell_gain_dominates_typically(self):
        layout = geo.hex_layout(7, 1000.0)
        params = geo.Cost231Params(noise_bandwidth_hz=760.0)
        rows = cost231_gain_rows(layout, params, 400, seed_substream(12, "r"))
        assert np.median(rows[:, 0] / rows[:, 1:].max(axis=1)) > 1.0
