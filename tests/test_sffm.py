import math

import numpy as np
import pytest

from msmil.numcore import Rng
from msmil.sffm import (
    CoverageError,
    FileMaskProvider,
    OracleMaskProvider,
    PatchRef,
    PatchSet,
    ResolutionError,
    _spans,
    _walk,
    full_grid,
    read_refs,
    red_fraction,
    run_sffm,
    write_refs,
)
from msmil.pipeline import build_bank
from msmil.synthwsi import (
    LesionMask,
    PyramidImage,
    SlideRecord,
    SpecError,
    SynthSpec,
    generate_mask,
    mask_to_ppm,
    write_ppm,
)
from msmil.synthwsi.pyramid import is_slide_side


def make_mask(red: np.ndarray) -> LesionMask:
    return LesionMask(red.astype(bool))


def brute_force_refs(red, s1, s2, d_k, width, height, theta=0.7):
    """Independent re-scan from the stated rules: float stride accumulation,
    floored bounds, strict threshold, rounded center mapping, bounds discard."""
    w = d_k / s1
    h = d_k / s2
    half = d_k // 2
    refs = []
    j = 0
    while math.floor(j * h + h) <= 1024:
        i = 0
        while math.floor(i * w + w) <= 1024:
            x_lo, x_hi = math.floor(i * w), math.floor(i * w + w)
            y_lo, y_hi = math.floor(j * h), math.floor(j * h + h)
            window = red[y_lo:y_hi, x_lo:x_hi]
            frac = window.sum() / window.size
            if frac > theta:
                x = math.floor((x_lo + x_hi) / 2 * s1 + 0.5)
                y = math.floor((y_lo + y_hi) / 2 * s2 + 0.5)
                if x - half >= 0 and x + half <= width and y - half >= 0 and y + half <= height:
                    refs.append((x, y, d_k))
            i += 1
        j += 1
    return refs


# ---------------------------------------------------------------- scan grid


def blank_image(width: int, height: int) -> PyramidImage:
    return PyramidImage(np.full((height, width, 3), 180, dtype=np.uint8))


def test_scan_grid_counts_at_s4():
    assert PatchSet(full_grid(4096, 4096)).per_scale == (64, 16, 4)
    window, ref = next(_walk(4096, 4096, (512,)))
    assert window == (0, 0, 128, 128)
    assert ref == PatchRef(256, 256, 512, 0)


def test_scan_grid_discards_trailing_partial_window():
    # 512 px at s = 3: stride 170.67, so a 7th window would end at 1194
    step = 512 / 3
    spans = _spans(step)
    assert len(spans) == 6 and spans[-1][1] <= 1024 < math.floor(6 * step + step)
    # the first 512 px column and row map to crops starting at -1 and are dropped too
    assert PatchSet(full_grid(3072, 3072)).per_scale == (25, 9, 0)
    assert all(w[2] <= 1024 and w[3] <= 1024 for w, _ in _walk(3072, 3072, (512, 1024, 2048)))


def test_scan_grid_resolution_error():
    with pytest.raises(ResolutionError):
        full_grid(600 * 1024, 4096)


# ------------------------------------------------------------- red_fraction


def test_red_fraction_extremes():
    red = np.zeros((1024, 1024))
    red[:128, :128] = 1
    mask = make_mask(red)
    assert red_fraction(mask, (0, 0, 128, 128)) == 1.0
    assert red_fraction(mask, (128, 128, 256, 256)) == 0.0


def test_red_fraction_checkerboard_is_half():
    red = np.indices((1024, 1024)).sum(axis=0) % 2
    mask = make_mask(red)
    assert red_fraction(mask, (0, 0, 128, 128)) == 0.5


# -------------------------------------------------------- the red predicate


def test_exact_threshold_is_rejected():
    window = (512, 512, 682, 682)  # a 512 px scan window at s = 3: 170 x 170 = 28,900 px
    assert window in [w for w, _ in _walk(3072, 3072, (512,))]
    red = np.zeros((1024, 1024))
    red[512:682, 512:682].flat[:20230] = 1  # exactly 0.7
    mask = make_mask(red)
    assert red_fraction(mask, window) == 0.7
    assert run_sffm(3072, 3072, mask).refs == []
    red[512:682, 512:682].flat[20230] = 1  # 20,231 px: strictly above
    kept = run_sffm(3072, 3072, make_mask(red)).refs
    assert kept == [PatchRef(1791, 1791, 512, 0)]


def test_fully_red_mask_maps_to_expected_centers():
    refs = run_sffm(4096, 4096, make_mask(np.ones((1024, 1024))), scales=(512,)).refs
    assert len(refs) == 64
    centers = {(r.x, r.y) for r in refs}
    assert centers == {(256 + 512 * i, 256 + 512 * j) for i in range(8) for j in range(8)}
    assert all(r.scale_code == 0 for r in refs)


def test_empty_mask_keeps_nothing():
    assert run_sffm(4096, 4096, make_mask(np.zeros((1024, 1024))), scales=(1024,)).refs == []


def test_border_overflow_refs_are_discarded():
    # fully red mask, but at s = 3 the one 2048 px window's crop starts at -1
    assert _spans(2048 / 3) == [(0, 682)]
    assert run_sffm(3072, 3072, make_mask(np.ones((1024, 1024))), scales=(2048,)).refs == []


# ----------------------------------------------------------------- run_sffm


def test_run_sffm_fully_red_counts():
    ps = run_sffm(4096, 4096, make_mask(np.ones((1024, 1024))))
    assert ps.per_scale == (64, 16, 4)
    assert ps.total == 84
    # ordering: d_k ascending, then y, then x
    sides = [r.d_k for r in ps.refs]
    assert sides == sorted(sides)
    first_scale = [r for r in ps.refs if r.d_k == 512]
    assert first_scale == sorted(first_scale, key=lambda r: (r.y, r.x))


def test_run_sffm_empty_mask():
    ps = run_sffm(4096, 4096, make_mask(np.zeros((1024, 1024))))
    assert ps.total == 0 and ps.per_scale == (0, 0, 0)


def test_run_sffm_half_plane_matches_brute_force():
    red = np.zeros((1024, 1024))
    red[:, :512] = 1  # left half
    ps = run_sffm(4096, 4096, make_mask(red))
    for d_k in (512, 1024, 2048):
        got = [(r.x, r.y, r.d_k) for r in ps.refs if r.d_k == d_k]
        want = brute_force_refs(red, 4.0, 4.0, d_k, 4096, 4096)
        assert sorted(got) == sorted(want)


def test_run_sffm_missing_slide():
    with pytest.raises(CoverageError, match="no oracle mask for slide 'blank'"):
        OracleMaskProvider({}).mask_for("blank")
    record = SlideRecord("blank", 0, 1024, 1024, 0, _image=blank_image(1024, 1024))
    with pytest.raises(CoverageError, match="no oracle mask for slide 'blank'"):
        build_bank(record, OracleMaskProvider({}), 8)


def test_file_provider_matches_oracle(tmp_path, c4_slides):
    _, mask, _ = c4_slides[1]
    (tmp_path / "slide").mkdir()
    write_ppm(mask_to_ppm(mask), tmp_path / "slide" / "mask.ppm")
    filed = FileMaskProvider(tmp_path).mask_for("slide")
    assert run_sffm(4096, 4096, mask).refs == run_sffm(4096, 4096, filed).refs


@pytest.mark.parametrize("width,height", [(3072, 3072), (4096, 4096), (2048, 6144), (2048, 8192)])
def test_lesion_refs_are_an_ordered_subsequence_of_the_grid(width, height):
    mask = make_mask(random_blobby_mask(Rng(width + height)))
    lesion = run_sffm(width, height, mask).refs
    grid = iter(full_grid(width, height))
    assert lesion and all(ref in grid for ref in lesion)
    if not is_slide_side(width) or not is_slide_side(height):
        # the grid is defined at any side; slides only at 1024 * 2**k
        with pytest.raises(ValueError, match="1024"):
            blank_image(width, height)
        return
    record = SlideRecord("blank", 0, width, height, 0, _image=blank_image(width, height))
    bank = build_bank(record, OracleMaskProvider({"blank": mask}), 8)
    assert len(bank.lesion_idx) == len(lesion)
    assert (np.diff(bank.lesion_idx) > 0).all()


def test_slide_size_rule_makes_every_grid_crop_a_box_slice():
    """Slides are 1024 * 2**k px and patch sides power-of-two divisors of 512,
    so every grid crop shrinks by a whole factor from a box-aligned origin."""
    for n in range(1, 17):
        try:
            SynthSpec(width=1024 * n)
            accepted = True
        except SpecError:
            accepted = False
        assert accepted == (n & (n - 1) == 0), n
    sides = [1024 << k for k in range(5)]
    for width in sides:
        for height in sides:
            refs = full_grid(width, height)
            assert refs
            for side in (8, 16, 32, 64, 128, 256, 512):
                for ref in refs:
                    y0, _, x0, _ = ref.bounds()
                    factor = ref.d_k // side
                    assert ref.d_k % side == 0 and x0 % factor == 0 and y0 % factor == 0, \
                        (width, height, side, ref)


# --------------------------------------------------- brute-force properties


def random_blobby_mask(rng: Rng) -> np.ndarray:
    """Union of random rectangles, sometimes touching borders."""
    red = np.zeros((1024, 1024), dtype=np.uint8)
    for _ in range(rng.integers(1, 5)):
        w = rng.integers(64, 700)
        h = rng.integers(64, 700)
        x = rng.integers(-32, 1024 - w + 33)
        y = rng.integers(-32, 1024 - h + 33)
        x0, y0 = max(0, x), max(0, y)
        red[y0:min(1024, y + h), x0:min(1024, x + w)] = 1
    return red


def test_retained_set_equals_brute_force_50_random_masks():
    rng = Rng(1234)
    for trial in range(50):
        red = random_blobby_mask(rng)
        ps = run_sffm(4096, 4096, make_mask(red))
        for d_k in (512, 1024, 2048):
            got = [(r.x, r.y, r.d_k) for r in ps.refs if r.d_k == d_k]
            want = brute_force_refs(red, 4.0, 4.0, d_k, 4096, 4096)
            assert sorted(got) == sorted(want), f"trial {trial}, d_k {d_k}"


def test_all_emitted_refs_are_croppable():
    rng = Rng(777)
    for _ in range(20):
        ps = run_sffm(4096, 4096, make_mask(random_blobby_mask(rng)))
        assert all(ref.in_bounds(4096, 4096) for ref in ps.refs)


def test_growing_red_region_never_removes_refs():
    rng = Rng(555)
    red = random_blobby_mask(rng)
    before = set(run_sffm(4096, 4096, make_mask(red)).refs)
    grown = red.copy()
    grown[200:600, 100:800] = 1
    after = set(run_sffm(4096, 4096, make_mask(grown)).refs)
    assert before <= after


@pytest.mark.parametrize("fraction", [0.1, 0.3, 0.5])
def test_lesion_fraction_economy(fraction):
    """Retained/total grid ratio tracks the lesion fraction within +/-0.15."""
    spec = SynthSpec(lesion_fraction=fraction)
    grid_total = 64 + 16 + 4
    for seed in (41, 42, 43):
        ps = run_sffm(4096, 4096, generate_mask(spec, seed))
        ratio = ps.total / grid_total
        assert fraction - 0.15 <= ratio <= fraction + 0.15, (fraction, seed, ratio)


# ------------------------------------------------------------------- dumps


def test_ref_dump_roundtrip(tmp_path):
    ps = run_sffm(4096, 4096, make_mask(np.ones((1024, 1024))))
    path = tmp_path / "refs.txt"
    write_refs(ps.refs, path)
    assert read_refs(path) == ps.refs
    line = path.read_text().splitlines()[0]
    assert line == "256 256 512 0"
