import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from msmil.raster import box_downscale
from msmil.sffm import FileMaskProvider
from msmil.synthwsi import (
    LesionMask,
    PpmError,
    PyramidImage,
    SpecError,
    SynthSpec,
    build_dataset,
    generate_mask,
    generate_wsi,
    load_dataset,
    mask_from_ppm,
    mask_to_ppm,
    read_ppm,
    single_scale_caps,
    write_dataset,
    write_ppm,
)
from msmil.synthwsi.ppm import ppm_size, read_ppm_bands


# ------------------------------------------------------------- generate_wsi


def test_generation_is_deterministic(c4_spec):
    a_img, a_mask = generate_wsi(c4_spec, 0, 7)
    b_img, b_mask = generate_wsi(c4_spec, 0, 7)
    assert (a_img.base == b_img.base).all()
    assert (a_mask.red == b_mask.red).all()


@pytest.mark.parametrize("target", [0.1, 0.3, 0.5])
def test_lesion_fraction_hits_target(target):
    spec = SynthSpec(lesion_fraction=target)
    for seed in (11, 12, 13):
        frac = generate_mask(spec, seed).red.mean()
        assert abs(frac - target) <= 0.05


def test_mask_is_binary_red_channel(c4_slides):
    _, mask, _ = c4_slides[0]
    assert mask.red.shape == (1024, 1024) and mask.red.dtype == np.bool_
    raster = mask_to_ppm(mask)
    assert raster.shape == (1024, 1024, 3) and raster.dtype == np.uint8
    np.testing.assert_array_equal(raster[:, :, 0], np.where(mask.red, 255, 0))
    assert raster[:, :, 1].max() == 0 and raster[:, :, 2].max() == 0


@pytest.mark.parametrize("shape,dtype", [((1024, 1024, 3), np.uint8), ((1024, 1024, 3), bool),
                                         ((1024, 1024), np.uint8), ((512, 512), bool)])
def test_lesion_mask_is_one_bool_plane(shape, dtype):
    with pytest.raises(ValueError, match="1024x1024 bool plane"):
        LesionMask(np.zeros(shape, dtype=dtype))


def test_mask_ppm_red_from_128_is_lesion():
    raster = np.zeros((1024, 1024, 3), dtype=np.uint8)
    raster[0, :4, 0] = (127, 128, 200, 255)
    raster[1, 0] = (0, 255, 255)  # only the red channel counts
    red = mask_from_ppm(raster).red
    assert red[0, :4].tolist() == [False, True, True, True]
    assert red.sum() == 3
    with pytest.raises(ValueError):
        mask_from_ppm(np.zeros((512, 1024, 3), dtype=np.uint8))


def test_oracle_mask_matches_slide_mask(c4_spec, c4_slides):
    _, mask, _ = c4_slides[2]
    regen = generate_mask(c4_spec, 9002)
    assert (regen.red == mask.red).all()


def _lesion_crops_by_band_sign(img, mask):
    """Aligned fully-red 512 px crops, keyed by the sign of their macro band."""
    plus, minus = [], []
    for wy in range(8):
        for wx in range(8):
            if mask.red[wy * 128:(wy + 1) * 128, wx * 128:(wx + 1) * 128].mean() < 1.0:
                continue
            crop = img.base[wy * 512:(wy + 1) * 512, wx * 512:(wx + 1) * 512, 1]
            (plus if crop.mean() > 146.0 else minus).append(crop)
    return plus, minus


def test_micro_identical_pair_has_indistinguishable_patch_histograms(c4_spec):
    """Classes 0 and 1 share micro texture; with the +/- band mixture balanced
    (one crop of each band sign per slide), pooled level-0 patch histograms
    must not be statistically distinguishable (chi-squared p > 0.01)."""
    pooled = {0: np.zeros(64), 1: np.zeros(64)}
    for label in (0, 1):
        for seed in (21, 22, 23):
            img, mask = generate_wsi(c4_spec, label, seed)
            plus, minus = _lesion_crops_by_band_sign(img, mask)
            assert plus and minus, "blob should span both band signs"
            for crop in (plus[0], minus[0]):
                pooled[label] += np.bincount(crop.reshape(-1) // 4, minlength=64)
    counts = np.stack([pooled[0], pooled[1]])
    keep = counts.sum(axis=0) > 0
    _, p, _, _ = stats.chi2_contingency(counts[:, keep])
    assert p > 0.01


def test_macro_identical_pair_is_pixel_identical_at_5x(c4_spec):
    """Classes 2 and 3 differ only in micro texture, which the 32x box average
    of a 2048 px aligned crop must erase exactly."""
    img2, _ = generate_wsi(c4_spec, 2, 31)
    img3, _ = generate_wsi(c4_spec, 3, 31)
    for wy in range(2):
        for wx in range(2):
            a = box_downscale(img2.base[wy * 2048:(wy + 1) * 2048, wx * 2048:(wx + 1) * 2048], 32, 32)
            b = box_downscale(img3.base[wy * 2048:(wy + 1) * 2048, wx * 2048:(wx + 1) * 2048], 32, 32)
            assert np.abs(a - b).max() == 0.0


def test_micro_pair_is_separable_at_5x(c4_spec):
    img0, _ = generate_wsi(c4_spec, 0, 31)
    img1, _ = generate_wsi(c4_spec, 1, 31)
    diff = 0.0
    for wy in range(2):
        for wx in range(2):
            a = box_downscale(img0.base[wy * 2048:(wy + 1) * 2048, wx * 2048:(wx + 1) * 2048], 32, 32)
            b = box_downscale(img1.base[wy * 2048:(wy + 1) * 2048, wx * 2048:(wx + 1) * 2048], 32, 32)
            diff = max(diff, np.abs(a - b).mean())
    assert diff > 5.0


def test_single_scale_caps_c4(c4_spec):
    caps = single_scale_caps(c4_spec)
    assert caps == {512: 0.75, 1024: 0.75, 2048: 0.75}


def test_single_scale_caps_c2():
    caps = single_scale_caps(SynthSpec(classes=2))
    assert caps[512] == 0.5 and caps[2048] == 1.0


def test_spec_validation():
    with pytest.raises(SpecError):
        SynthSpec(classes=5)
    with pytest.raises(SpecError):
        SynthSpec(lesion_fraction=0.7)
    with pytest.raises(SpecError):
        generate_wsi(SynthSpec(), 4, 1)


# ----------------------------------------------------------------- pyramid


def test_pyramid_levels_agree_with_level0_averaging(c4_slides):
    img, _, _ = c4_slides[1]
    for factor in (2, 4, 8, 16):
        lvl = img.level(factor)
        ref = box_downscale(img.base, factor, factor)
        assert lvl.shape[:2] == (4096 // factor, 4096 // factor)
        assert np.abs(lvl.astype(np.float64) - ref).max() <= 1.0


# --------------------------------------------------------------------- ppm


def test_ppm_roundtrip_single_red_pixel(tmp_path):
    px = np.zeros((1, 1, 3), dtype=np.uint8)
    px[0, 0, 0] = 255
    path = tmp_path / "px.ppm"
    write_ppm(px, path)
    first = path.read_bytes()
    again = read_ppm(path)
    np.testing.assert_array_equal(again, px)
    write_ppm(again, path)
    assert path.read_bytes() == first


def test_ppm_roundtrip_mask_sized(tmp_path, c4_slides):
    _, mask, _ = c4_slides[3]
    raster = mask_to_ppm(mask)
    path = tmp_path / "mask.ppm"
    write_ppm(raster, path)
    np.testing.assert_array_equal(read_ppm(path), raster)
    np.testing.assert_array_equal(mask_from_ppm(read_ppm(path)).red, mask.red)


def test_ppm_truncated_file_reports_offset(tmp_path):
    raster = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
    path = tmp_path / "t.ppm"
    write_ppm(raster, path)
    full = path.read_bytes()
    path.write_bytes(full[:-5])
    with pytest.raises(PpmError) as e:
        read_ppm(path)
    assert e.value.offset == len(full) - 5
    assert str(e.value).startswith(f"{path}: truncated raster: ")


def test_ppm_header_cut_inside_the_dimensions(tmp_path):
    path = tmp_path / "h.ppm"
    path.write_bytes(b"P6\n4 ")
    with pytest.raises(PpmError) as e:
        read_ppm(path)
    assert e.value.offset == 5


def test_ppm_trailing_bytes_report_offset(tmp_path):
    raster = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
    path = tmp_path / "t.ppm"
    write_ppm(raster, path)
    full = path.read_bytes()
    path.write_bytes(full + b"\x00\x01\x02")
    with pytest.raises(PpmError) as e:
        read_ppm(path)
    assert e.value.offset == len(full)
    assert "3 trailing bytes" in str(e.value)


def test_ppm_header_comment_lines_parse(tmp_path):
    raster = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6# made by hand\n4 # width\r4\n#\n255\n" + raster.tobytes())
    np.testing.assert_array_equal(read_ppm(path), raster)


def test_ppm_bad_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(PpmError):
        read_ppm(path)


def test_ppm_bad_header_token(tmp_path):
    path = tmp_path / "bad2.ppm"
    path.write_bytes(b"P6\nxx 2\n255\n")
    with pytest.raises(PpmError):
        read_ppm(path)


def test_ppm_header_errors_quote_the_bytes_read(tmp_path):
    path = tmp_path / "bad.ppm"
    at = re.escape(f"{path}: ")
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(PpmError, match=rf"^{at}not a P6 file \(magic b'P5'\) \(byte offset 0\)$"):
        read_ppm(path)
    path.write_bytes(b"P6\nxx 2\n255\n")
    with pytest.raises(PpmError, match=rf"^{at}expected integer, got b'xx' \(byte offset 3\)$"):
        read_ppm(path)


def test_ppm_bands_share_one_buffer_and_rebuild_the_raster(tmp_path):
    raster = np.random.default_rng(5).integers(0, 256, size=(10, 4, 3), dtype=np.uint8)
    path = tmp_path / "b.ppm"
    write_ppm(raster, path)
    assert ppm_size(path) == (4, 10)
    rows, addresses = [], set()
    for band in read_ppm_bands(path, 4):
        rows.append(band.copy())
        addresses.add(band.ctypes.data)
    assert [len(band) for band in rows] == [4, 4, 2] and len(addresses) == 1
    np.testing.assert_array_equal(np.concatenate(rows), raster)


def test_ppm_size_and_bands_fail_as_read_ppm_fails(tmp_path):
    path = tmp_path / "bad.ppm"
    for data in (b"", b"P6\n4 ", b"P6\n4 4\n255\n" + bytes(47), b"P6\n4 4\n255\n" + bytes(49)):
        path.write_bytes(data)
        with pytest.raises(PpmError) as want:
            read_ppm(path)
        for read in (lambda: ppm_size(path), lambda: next(read_ppm_bands(path, 2))):
            with pytest.raises(PpmError) as got:
                read()
            assert (str(got.value), got.value.offset) == (str(want.value), want.value.offset)


def test_ppm_read_holds_the_raster_once(tmp_path):
    raster = np.random.default_rng(4).integers(0, 256, size=(1024, 1024, 3), dtype=np.uint8)
    path = tmp_path / "slide.ppm"
    write_ppm(raster, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        again = read_ppm(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(again, raster)
    assert again.flags.writeable
    assert peak <= size + (1 << 20), f"peak {peak} bytes for a {size}-byte file"


# ------------------------------------------------------------ dataset io


def test_dataset_write_load_roundtrip(tmp_path):
    spec = SynthSpec()
    ds = write_dataset(tmp_path / "ds", spec, 4, seed=5)
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.spec == spec
    assert [s.label for s in loaded.slides] == [0, 1, 2, 3]
    rec = loaded.slides[2]
    mem = ds.slides[2]
    assert (rec.image().base == mem.image().base).all()
    filed = FileMaskProvider(tmp_path / "ds").mask_for(rec.ident)
    assert (filed.red == generate_mask(spec, mem.seed).red).all()


def test_dataset_with_the_old_texture_keys_still_loads(tmp_path):
    """Manifests once carried the texture constants as spec fields; loading
    ignores those five keys."""
    root = tmp_path / "ds"
    write_dataset(root, SynthSpec(classes=2, width=1024, height=1024), 2, seed=5)
    new = load_dataset(root)
    with open(root / "manifest.txt", "a") as fh:
        fh.write("noise=6\nmicro_period=32\nmicro_amp=22\nmacro_cell=1024\nmacro_amp=12\n")
    old = load_dataset(root)
    assert old.spec == new.spec
    assert old.seed == new.seed and old.slides == new.slides


def test_dataset_write_is_reproducible(tmp_path):
    spec = SynthSpec()
    write_dataset(tmp_path / "a", spec, 2, seed=5)
    write_dataset(tmp_path / "b", spec, 2, seed=5)
    for name in ("slide_0000/image.ppm", "slide_0001/mask.ppm", "manifest.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_build_dataset_in_memory():
    ds = build_dataset(SynthSpec(), 4, seed=3)
    assert [s.label for s in ds.slides] == [0, 1, 2, 3]
    assert single_scale_caps(ds.spec)[512] == 0.75
    assert ds.slides[0].ident == "slide_0000"
    img = ds.slides[0].image()
    assert img.base.shape == (4096, 4096, 3)
