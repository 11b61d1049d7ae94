"""Unit tests for image parsing, components, and the seeded generator."""

import pytest

from morsereduce.image import (
    BinaryImage,
    NetpbmError,
    count_components,
    load_image,
    parse_pbm,
    parse_pgm,
    random_image,
)

import oracle


def test_binary_image_basics():
    img = BinaryImage.from_rows([[1, 0], [0, 1]])
    assert (img.width, img.height) == (2, 2)
    assert img.get(0, 0) == 1 and img.get(0, 1) == 0
    assert img.foreground() == [(0, 0), (1, 1)]
    assert img.count_foreground() == 2
    with pytest.raises(IndexError):
        img.get(2, 0)
    with pytest.raises(ValueError):
        BinaryImage(2, 2, 1 << 4)


def test_parse_plain_pbm_with_comments_and_packed_digits():
    data = b"P1\n# a comment\n3 2 # trailing comment\n101\n0 1 0\n"
    img = parse_pbm(data)
    assert img.foreground() == [(0, 0), (0, 2), (1, 1)]


def test_parse_plain_pbm_takes_comments_and_whitespace_anywhere_in_the_pixels():
    data = b"P1 3 3#c\n1#one\r0 1\t\n\x0b0# 1 1 1\n10\x0c\n0\n# trailing\n1 1 1"
    assert parse_pbm(data) == BinaryImage.from_rows([[1, 0, 1], [0, 1, 0], [0, 1, 1]])
    assert parse_pbm(b"P1\n0 4\n") == BinaryImage(0, 4, 0)  # no pixels, nothing read


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P1\n2 2\n1 0 1\n", "truncated pixel data"),
        (b"P1\n2 2\n1 0 # 1 1\n1", "truncated pixel data"),
        (b"P1\n2 2\n1 0 1 2\n", "bad pixel byte b'2'"),
        (b"P1\n2 2\n1 x", "bad pixel byte b'x'"),  # the bad byte is named before the shortage
        (b"P1\n2 2\n1 0 1 1 x", None),  # bytes past the last pixel are not read
    ],
)
def test_plain_pbm_pixel_errors_name_the_first_fault(data, message):
    if message is None:
        assert parse_pbm(data).count_foreground() == 3
    else:
        with pytest.raises(NetpbmError, match=rf"^{message}$"):
            parse_pbm(data)


def test_parse_raw_pbm_pads_rows_to_bytes():
    # Width 10 needs two bytes per row; trailing pad bits are ignored.
    rows = [0b1000000001, 0b0000000110]
    payload = bytes(
        [
            0b10000000, 0b01000000,  # row 0: pixels 0 and 9
            0b01100000, 0b00000000,  # row 1: pixels 1 and 2
        ]
    )
    img = parse_pbm(b"P4\n10 2\n" + payload)
    assert img == BinaryImage(10, 2, rows[0] | (rows[1] << 10))
    assert parse_pbm(b"P4\n0 4\n") == BinaryImage(0, 4, 0)  # no pixels: as P1 gives


def test_parse_pbm_errors():
    with pytest.raises(NetpbmError):
        parse_pbm(b"P7\n1 1\n0\n")
    with pytest.raises(NetpbmError):
        parse_pbm(b"P1\n2 2\n1 0 1\n")  # truncated
    with pytest.raises(NetpbmError):
        parse_pbm(b"P1\n2 2\n1 0 1 2\n")  # bad pixel
    with pytest.raises(NetpbmError):
        parse_pbm(b"P4\n9 2\n\x00")  # truncated raster


def test_parse_plain_pgm_threshold_is_strict():
    data = b"P2\n2 1\n255\n127 128\n"
    img = parse_pgm(data, threshold=128)
    assert img.get(0, 0) == 1  # 127 < 128: foreground
    assert img.get(0, 1) == 0  # 128 is not
    assert parse_pgm(data, threshold=200).count_foreground() == 2


def test_parse_raw_pgm_one_and_two_byte_samples():
    img8 = parse_pgm(b"P5\n2 1\n255\n" + bytes([10, 250]))
    assert img8.get(0, 0) == 1 and img8.get(0, 1) == 0
    img16 = parse_pgm(b"P5\n2 1\n65535\n" + bytes([0, 100, 1, 0]), threshold=128)
    assert img16.get(0, 0) == 1  # sample 100
    assert img16.get(0, 1) == 0  # sample 256


def test_parse_pgm_errors():
    with pytest.raises(NetpbmError):
        parse_pgm(b"P5\n2 1\n0\n\x00\x00")  # maxval 0
    with pytest.raises(NetpbmError):
        parse_pgm(b"P2\n2 1\n255\n300 0\n")  # sample above maxval
    with pytest.raises(NetpbmError):
        parse_pgm(b"P5\n2 2\n255\n\x00")  # truncated
    # Samples that run out are a shortage of pixels, as in P1, not a header fault.
    for data in (b"P2\n2 1\n255\n7\n", b"P2\n2 1\n255\n7 # 8\n"):
        with pytest.raises(NetpbmError, match=r"^truncated pixel data$"):
            parse_pgm(data)
    with pytest.raises(NetpbmError, match=r"^unexpected end of header$"):
        parse_pgm(b"P2\n2 1\n")  # the maxval is missing


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5 1 1 15\n\xff", "pixel 255 exceeds maxval 15"),
        (b"P5 3 1 200\n\x00\xc9\xff", "pixel 201 exceeds maxval 200"),  # the first, not the largest
        (b"P5 2 1 1000\n\x03\xe8\x03\xe9", "pixel 1001 exceeds maxval 1000"),
    ],
)
def test_raw_samples_above_maxval_are_refused_as_plain_ones_are(data, message):
    with pytest.raises(NetpbmError, match=f"^{message}$"):
        parse_pgm(data, threshold=300)


def test_load_image_dispatches_on_magic(tmp_path):
    pbm = tmp_path / "x.pbm"
    pbm.write_bytes(b"P1\n1 1\n1\n")
    assert load_image(str(pbm)).count_foreground() == 1
    pgm = tmp_path / "x.pgm"
    pgm.write_bytes(b"P2\n1 1\n255\n7\n")
    assert load_image(str(pgm)).count_foreground() == 1
    bad = tmp_path / "x.bin"
    bad.write_bytes(b"GIF89a")
    with pytest.raises(NetpbmError):
        load_image(str(bad))


def test_to_pbm_round_trip():
    img = random_image(9, 5, 0.4, 123)
    assert parse_pbm(img.to_pbm()) == img


@pytest.mark.parametrize(
    "width, height, density, seed",
    [(11, 6, 0.5, 1), (70, 3, 0.35, 2), (1, 40, 0.6, 3), (0, 7, 0.5, 4), (7, 0, 0.5, 5), (9, 9, 1.0, 6)],
)
def test_foreground_lists_the_oracle_pixels_in_row_major_order(width, height, density, seed):
    img = random_image(width, height, density, seed)
    stream = oracle.splitmix64_pixels(width, height, density, seed)
    assert img.foreground() == [divmod(i, width) for i, v in enumerate(stream) if v]


def test_count_components_frozen_cases():
    assert count_components(BinaryImage(3, 3, 0)) == 0
    assert count_components(BinaryImage.from_rows([[1, 0], [0, 1]])) == 1  # corner touch
    assert count_components(BinaryImage.from_rows([[1, 0, 1], [0, 0, 0], [1, 0, 1]])) == 4
    ring = BinaryImage.from_rows([[1, 1, 1], [1, 0, 1], [1, 1, 1]])
    assert count_components(ring) == 1


def test_count_components_matches_union_find_oracle():
    for seed in range(30):
        img = random_image(12, 9, 0.35 + (seed % 5) * 0.1, seed)
        assert count_components(img) == oracle.count_components_uf(set(img.foreground()))


def test_random_image_matches_documented_generator():
    for seed in (0, 1, 7, 2**63):
        img = random_image(11, 6, 0.5, seed)
        want = oracle.splitmix64_pixels(11, 6, 0.5, seed)
        got = [img.get(r, c) for r in range(6) for c in range(11)]
        assert got == want


def test_random_image_density_extremes_and_determinism():
    assert random_image(8, 8, 0.0, 5).count_foreground() == 0
    assert random_image(8, 8, 1.0, 5).count_foreground() == 64
    assert random_image(16, 16, 0.3, 9) == random_image(16, 16, 0.3, 9)
    assert random_image(16, 16, 0.3, 9) != random_image(16, 16, 0.3, 10)
    with pytest.raises(ValueError):
        random_image(4, 4, 1.5, 0)
