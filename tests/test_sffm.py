import hashlib
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
    full_grid,
    read_refs,
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

# slide sizes the oracle checks run at: square, both non-square ways, and the
# smallest slide, where no 2048 px tile fits
ORACLE_SIDES = [(4096, 4096), (2048, 8192), (8192, 4096), (1024, 1024)]


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
    grid = full_grid(4096, 4096)
    assert PatchSet(grid).per_scale == (64, 16, 4)
    assert grid[0] == PatchRef(256, 256, 512, 0)


def test_scan_grid_resolution_error():
    """A side off 1024 * 2**k, or one whose 512 px tile covers less than one
    mask pixel, is named in a ValueError; the largest side still tiles."""
    ones = make_mask(np.ones((1024, 1024)))
    for bad in (3072, 614400, 1024 << 10):
        with pytest.raises(ValueError, match=f"slide side {bad} px"):
            full_grid(bad, 4096)
        with pytest.raises(ValueError, match=f"slide side {bad} px"):
            run_sffm(4096, bad, ones)
    assert run_sffm(1024 << 9, 1024, ones).per_scale == (2048, 512, 0)


def test_mil_bag_grid_is_pinned():
    """The benchmark's mil_bag cache lays out its 1,344-instance bags and
    their sidecar in this grid's order."""
    grid = full_grid(16384, 16384)
    assert len(grid) == 1344
    assert grid == sorted(grid, key=lambda r: (r.d_k, r.y, r.x))
    text = "".join(f"{r.x} {r.y} {r.d_k} {r.scale_code}\n" for r in grid)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "62248a48ec73c2e756506f7a7ce50b58e8bb873b295d39ca1600fdbac0040bb7"


# ------------------------------------------------------- a block's red share


def test_red_fraction_extremes():
    red = np.zeros((1024, 1024))
    red[:128, :128] = 1
    # at 4096 px the first 512 px tile is that whole block, and its 1024 px
    # tile a quarter lesion; every other block has none
    assert run_sffm(4096, 4096, make_mask(red)).refs == [PatchRef(256, 256, 512, 0)]


def test_red_fraction_checkerboard_is_half():
    """A checkerboard counts half its pixels: under 51 lesion rows a 128 x 128
    block holds 0.6992 lesion, under 52 it holds 0.7031."""
    red = np.indices((1024, 1024)).sum(axis=0) % 2
    red[:51] = 1
    assert run_sffm(4096, 4096, make_mask(red)).per_scale == (0, 0, 0)
    red[51] = 1
    assert run_sffm(4096, 4096, make_mask(red)).per_scale == (8, 0, 0)


# -------------------------------------------------------- the red predicate


def test_exact_threshold_is_rejected():
    # a 512 px tile at 4096 px is a 128 x 128 = 16,384 px mask block; no count
    # of it is exactly 0.7, and 11,468 px (0.69995) is the largest below
    red = np.zeros((1024, 1024))
    red[512:640, 512:640].flat[:11468] = 1
    assert run_sffm(4096, 4096, make_mask(red)).refs == []
    red[512:640, 512:640].flat[11468] = 1  # 11,469 px: 0.70001
    kept = run_sffm(4096, 4096, make_mask(red)).refs
    assert kept == [PatchRef(2304, 2304, 512, 0)]


def test_fully_red_mask_maps_to_expected_centers():
    refs = [r for r in run_sffm(4096, 4096, make_mask(np.ones((1024, 1024)))).refs if r.d_k == 512]
    assert len(refs) == 64
    centers = {(r.x, r.y) for r in refs}
    assert centers == {(256 + 512 * i, 256 + 512 * j) for i in range(8) for j in range(8)}
    assert all(r.scale_code == 0 for r in refs)


def test_empty_mask_keeps_nothing():
    assert run_sffm(2048, 8192, make_mask(np.zeros((1024, 1024)))).refs == []


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
    for width, height in ORACLE_SIDES:
        ps = run_sffm(width, height, make_mask(red))
        for d_k in (512, 1024, 2048):
            got = [(r.x, r.y, r.d_k) for r in ps.refs if r.d_k == d_k]
            want = brute_force_refs(red, width / 1024, height / 1024, d_k, width, height)
            assert sorted(got) == sorted(want), (width, height, d_k)


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


@pytest.mark.parametrize("width,height", [(4096, 4096), (2048, 8192)])
def test_lesion_refs_are_an_ordered_subsequence_of_the_grid(width, height):
    mask = make_mask(random_blobby_mask(Rng(width + height)))
    lesion = run_sffm(width, height, mask).refs
    grid = iter(full_grid(width, height))
    assert lesion and all(ref in grid for ref in lesion)
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
                    x0, y0 = ref.x - ref.d_k // 2, ref.y - ref.d_k // 2
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
    for width, height in ORACLE_SIDES:
        rng = Rng(1234)
        for trial in range(50):
            red = random_blobby_mask(rng)
            ps = run_sffm(width, height, make_mask(red))
            for d_k in (512, 1024, 2048):
                got = [(r.x, r.y, r.d_k) for r in ps.refs if r.d_k == d_k]
                want = brute_force_refs(red, width / 1024, height / 1024, d_k, width, height)
                assert sorted(got) == sorted(want), f"{width}x{height}, trial {trial}, d_k {d_k}"


def test_all_emitted_refs_are_croppable():
    rng = Rng(777)
    for width, height in ORACLE_SIDES:
        for _ in range(20):
            for ref in run_sffm(width, height, make_mask(random_blobby_mask(rng))).refs:
                half = ref.d_k // 2
                assert half <= ref.x <= width - half and half <= ref.y <= height - half, ref


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
