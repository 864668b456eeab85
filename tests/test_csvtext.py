"""CSV cell kernels: every cell is byte-equal to Python's own formatting."""

from __future__ import annotations

import numpy as np

from oscidmd import csvtext


def cell_texts(cells: np.ndarray) -> list[str]:
    """Each uint32 cell of an (n, w) matrix as text, padding dropped."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in cells.reshape(len(cells), -1)]


def assert_percent_format(values) -> None:
    """``floats`` gives ``'%.16e' % x`` for every x, naming the first value where it does not."""
    values = np.asarray(values, dtype=float).ravel()
    got = cell_texts(csvtext.floats(values))
    want = ["%.16e" % x for x in values.tolist()]
    first = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert first is None, f"{values[first]!r}: {got[first]!r} != {want[first]!r}"
    assert len(got) == len(want)


def powers_of_ten() -> np.ndarray:
    return np.array([float(f"1e{k}") for k in range(-300, 301)])


class TestFloats:
    def test_random_bit_patterns_over_the_whole_exponent_range(self):
        bits = np.random.default_rng(2024).integers(0, 2**64, size=2**17 + 2**12, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][: 2**17]
        assert values.size == 2**17
        assert_percent_format(values)

    def test_powers_of_ten_and_their_neighbours(self):
        p = powers_of_ten()
        assert_percent_format(np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p]))

    def test_values_a_few_ulps_from_powers_of_ten(self):
        # the products land next to 10^16 or 10^17, where the exponent from
        # log10 may be one off or the rounding carries into an 18th digit
        p = powers_of_ten()
        steps = np.arange(1, 40)[:, None]
        assert_percent_format([p * (1 - steps * 2.0**-53), p * (1 + steps * 2.0**-52),
                               p * (1 - steps * 1e-17), p * (1 + steps * 1e-16)])

    def test_round_half_even_ties_under_an_exact_power(self):
        assert "%.16e" % (4000000000000001 / 4) == "1.0000000000000002e+15"
        odd = np.random.default_rng(7).integers(2 * 10**15, 45 * 10**14, size=50_000) * 2 + 1
        assert_percent_format(np.concatenate([[4000000000000001 / 4], odd / 4, -odd / 4, odd / 2]))

    def test_round_half_even_ties_under_an_inexact_power(self):
        # m * 2^-(k + 1) times 10^k is m * 5^k / 2: a tie the double-double cannot
        # decide, so these go through %
        ties = [m * 2.0**-24 for m in range(3, 17, 2)] + [2.0**-25, 3 * 2.0**-25]
        _, _, sure = csvtext._decimal(np.array(ties))
        assert not sure.any()
        assert_percent_format(ties)

    def test_edge_values(self):
        lo, hi = csvtext._RANGE
        assert_percent_format([
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0),
            1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan,
            lo, np.nextafter(lo, 0), -np.nextafter(lo, 0),
            hi, np.nextafter(hi, np.inf), -np.nextafter(hi, np.inf),
        ])

    def test_integers_and_sample_times(self):
        rng = np.random.default_rng(9)
        assert_percent_format(rng.integers(-(2**53), 2**53, size=50_000).astype(float))
        assert_percent_format(0.25 + np.arange(50_000) * 1e-4)
        digits = rng.integers(10**16, 10**17, size=50_000)
        assert_percent_format(digits * 10.0 ** rng.integers(-290, 270, size=50_000))

    def test_shape_and_empty_input(self):
        assert csvtext.floats(np.zeros((3, 2))).shape == (3, 2, 6)
        assert csvtext.floats([]).shape == (0, 6)

    def test_raises_no_warning(self):
        with np.errstate(all="raise"):
            assert_percent_format([np.nan, np.inf, -np.inf, 0.0, 1e-320, 1e300, 1.5])


class TestRows:
    def test_joins_groups_with_commas_and_newlines(self):
        cells = csvtext.floats([[0.5, -2.0], [1e-300, np.inf]])
        text = csvtext.rows([csvtext.text(["7", "12345,0"]), cells, csvtext.text(["", "decaying"])])
        assert text == (b"7,5.0000000000000000e-01,-2.0000000000000000e+00,\n"
                        b"12345,0,1.0000000000000000e-300,inf,decaying\n")

    def test_text_cells_are_padded_to_whole_words(self):
        cells = csvtext.text(["", "abc", "abcd", "abcdefghi"])
        assert cells.shape == (4, 3)
        assert cell_texts(cells) == ["", "abc", "abcd", "abcdefghi"]
