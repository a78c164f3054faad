import csv
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairdesert.data as data_module
from fairdesert.data import (
    CsvSchema,
    Dataset,
    apply_scaling,
    load_csv,
    read_csv,
    require_positivity,
    scale_covariates,
    stratum_counts,
    write_csv,
)
from fairdesert.errors import (
    DegenerateCovariateError,
    EmptyDataError,
    ParseError,
    PositivityError,
    SchemaError,
)


def make_dataset(n=12, d=2, seed=0, scaled=True):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    return Dataset(
        s=rng.integers(0, 2, n),
        z=rng.integers(0, 2, n),
        y=rng.integers(0, 2, n),
        x=x,
        covariate_names=tuple(f"x{j}" for j in range(d)),
        scaling=((0.0, 1.0),) * d,
        scaled=scaled,
    )


def test_load_csv_three_rows(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(
        "race,quality,callback,exp\n1,0,1,3.5\n0,1,0,1.25\n1,1,1,7.0\n",
        encoding="utf-8",
    )
    schema = CsvSchema(s="race", z="quality", y="callback", covariates=("exp",))
    ds = load_csv(path, schema)
    assert ds.n == 3 and ds.d == 1
    assert ds.x[:, 0].tolist() == [3.5, 1.25, 7.0]
    assert not ds.scaled


def test_load_csv_nonbinary_cites_row(tmp_path):
    rows = ["s,z,y,x0"] + ["1,0,1,0.5"] * 6 + ["1,0,2,0.5", "0,1,0,0.5"]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="row 7") as err:
        load_csv(path, CsvSchema(covariates=("x0",)))
    assert err.value.row == 7


def test_load_csv_short_row_cites_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("s,z,y,x0\n1,0,1,0.5\n\n0,1,0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="row 2") as err:
        load_csv(path, CsvSchema(covariates=("x0",)))
    assert err.value.row == 2


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "missing.csv"
    path.write_text("s,z,y\n1,0,1\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="x0"):
        load_csv(path, CsvSchema(covariates=("x0",)))


def test_load_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("s,z,y,x0\n", encoding="utf-8")
    with pytest.raises(EmptyDataError):
        load_csv(path, CsvSchema(covariates=("x0",)))


def test_load_csv_rejects_missing_values(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("s,z,y,x0\n1,0,1,nan\n0,1,0,0.5\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_csv(path, CsvSchema(covariates=("x0",)))


def test_load_csv_custom_binary_encoding(tmp_path):
    path = tmp_path / "enc.csv"
    path.write_text(
        "race,q,call,x0\nwhite,0,1,0.2\nblack,1,0,0.8\nwhite,1,1,0.5\nblack,0,0,0.4\n",
        encoding="utf-8",
    )
    schema = CsvSchema(
        s="race", z="q", y="call", covariates=("x0",),
        binary_values={"white": 1, "black": 0},
    )
    ds = load_csv(path, schema)
    assert ds.s.tolist() == [1, 0, 1, 0]


@pytest.mark.parametrize("codes", [{"yes": 2}, {"no": -1}, {"yes": 0.5}, {"yes": "1"},
                                   {"yes": None}, ["yes", 1]])
def test_schema_rejects_binary_codes_other_than_0_1(codes):
    with pytest.raises(SchemaError, match="binary_values must map cell text to 0 or 1"):
        CsvSchema(binary_values=codes)


@pytest.mark.parametrize("schema, match", [
    ({"covariates": "x1"}, "list of column names; got 'x1'"),
    ({"covariates": None}, "list of column names; got None"),
    ({"covariates": ("x1", 2)}, "list of column names"),
    ({"covariates": ("x1", "x2", "x1")}, "distinct columns .* got x1$"),
    ({"covariates": ("s", "x1")}, "other than the s, z and y columns; got s$"),
    ({"z": "quality", "covariates": ("quality", "y")}, "got quality, y$"),
])
def test_schema_rejects_bad_covariate_lists(schema, match):
    with pytest.raises(SchemaError, match=match):
        CsvSchema(**schema)


@pytest.mark.parametrize("field", ["s", "z", "y"])
@pytest.mark.parametrize("value", [3, None, ["z"]], ids=["number", "null", "list"])
def test_schema_rejects_column_names_that_are_not_text(field, value):
    with pytest.raises(SchemaError, match=f"^{field} must be a column name; got "):
        CsvSchema(**{field: value})


def test_schema_stores_covariates_as_a_tuple():
    assert CsvSchema(covariates=["b", "a"]).covariates == ("b", "a")


def test_csv_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(3)
    n = 25
    x = rng.standard_normal((n, 3)) * np.array([1e-7, 1.0, 1e6]) + 0.1
    ds = Dataset(
        s=rng.integers(0, 2, n), z=rng.integers(0, 2, n), y=rng.integers(0, 2, n),
        x=x, covariate_names=("a", "b", "c"),
        scaling=tuple((float(x[:, j].min()), float(x[:, j].max())) for j in range(3)),
    )
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    back = load_csv(path, CsvSchema(covariates=("a", "b", "c")))
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.s, ds.s)
    assert np.array_equal(back.z, ds.z)
    assert np.array_equal(back.y, ds.y)


def _old_write_csv(data, path, schema):
    """The per-row writer `write_csv` used before it wrote blocks of columns."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([schema.s, schema.z, schema.y, *schema.covariates])
        for i in range(data.n):
            writer.writerow(
                [int(data.s[i]), int(data.z[i]), int(data.y[i])]
                + [repr(float(v)) for v in data.x[i]]
            )
    return path.read_bytes()


def test_write_csv_matches_the_per_row_writer(tmp_path):
    rng = np.random.default_rng(11)
    n = 2 * data_module._WRITE_BLOCK_ROWS + 3
    x = rng.standard_normal((n, 3)) * np.array([1e-7, 1.0, 1e16])
    x[:4, 0] = [-0.0, 5e-324, 1e16, 1e-7]
    names = ("plain", "a,b", 'say "hi"')
    ds = Dataset(
        s=rng.integers(0, 2, n), z=rng.integers(0, 2, n), y=rng.integers(0, 2, n),
        x=x, covariate_names=names,
        scaling=tuple((float(x[:, j].min()), float(x[:, j].max())) for j in range(3)),
    )
    for schema in (None, CsvSchema(s="group, s", z='"z"', covariates=names)):
        write_csv(ds, tmp_path / "new.csv", schema)
        old = _old_write_csv(ds, tmp_path / "old.csv", schema or CsvSchema(covariates=names))
        assert (tmp_path / "new.csv").read_bytes() == old


# custom keys: the longest sets the text width of binary cells, and " maybe" can
# never match a stripped cell
DIFF_SCHEMA = CsvSchema(covariates=("x0", "x1"),
                        binary_values={"yes": 1, "no": 0, "female": 0, " maybe": 1})


def _read_outcome(path, columns, row_wise):
    """`read_csv`'s arrays as bytes, or its exception's type, message and row."""
    forced = mock.patch.object(data_module, "_read_columns", return_value=None)
    with forced if row_wise else nullcontext():
        try:
            binary, x = read_csv(path, DIFF_SCHEMA, columns)
        except Exception as exc:
            return type(exc), str(exc), getattr(exc, "row", None)
    return [(b.dtype, b.tobytes()) for b in binary], x.dtype, x.shape, x.tobytes()


_BINARY = st.sampled_from(["0", "1", "0.0", "1.0", "yes", "no"])
_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_CELL = st.one_of(
    _BINARY,
    _NUMBER,
    st.text(alphabet="0123456789+-.eE_ \t\"xpinfaIty", max_size=7),
    st.sampled_from(["inf", "-inf", "nan", "Infinity", "1e0", "+1", " 1", "1 ", "0x1p3",
                     "1_0", "", "\x00", "1\x00", "yes ", "1.0 x", "\uff11", "female", "females",
                     " maybe", "big"]),
)
_ROW = st.one_of(
    st.tuples(_BINARY, _BINARY, _BINARY, _NUMBER, _NUMBER).map(",".join),
    st.lists(_CELL, max_size=7).map(",".join),
)


@st.composite
def _csv_texts(draw):
    header = draw(st.sampled_from(
        ["s,z,y,x0,x1", "x1,y,z,s,x0", "s,z,y,x0,x1,note", "s,z,y,x0,x0,x1", "s,z,y,x0",
         "s,z,y,a,b,x0,x1"]
    ))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    rows = draw(st.lists(_ROW, max_size=6))
    return end.join([header, *rows]) + draw(st.sampled_from(["", end]))


@pytest.fixture(scope="module")
def diff_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts(), columns=st.sampled_from([("s", "z", "y"), ("z", "s"), ("z",)]))
@example(text="s,z,y,x0,x1\n1,0,1,0.5,2\n   \n0,1,0,0.25,3\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1,0,1,0.5,2\n\t\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1,0,1,0x1p3,2\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1,0,1,1_0,2\n0,1,0,0.5,3\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1e0,0,1,0.5,2\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n+1,0,1,0.5,2\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n 1,0,1,0.5,2\n0,1,0,0.25,3\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1,0 ,1,0.5,2\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1,0,1,0.5,2,9,extra\n0,1,0,0.25,3\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1,0,1,0.5,2\n0,1,0,0.25\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\r1,0,1,0.5,2\r0,1,0,0.25,3\r", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\r\n1,0,1,0.5,2\r\n\r\n0,1,0,0.25,3\r\n", columns=("s", "z", "y"))
@example(text='s,z,y,x0,x1\n1,0,1,"0,5",2\n', columns=("s", "z", "y"))
@example(text='s,z,y,x0,x1\n1,0,1,"0.5",2\n0,1,0,0.25,3\n', columns=("s", "z", "y"))
@example(text='s,z,y,a,b,x0,x1\n1,0,1,"a,b",5,6\n', columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n maybe,0,1,0.5,2\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\nfemale,0,1,0.5,2\nfemales,1,0,0.5,2\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1\x00,0,1,0.5,2\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1,0,1,0.5\x00,2\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1,0,1,nan,2\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1,0,1,0.5,2\n0,1,0,Infinity,3\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1", columns=("s", "z", "y"))
@example(text="", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\nyes,no,1.0,0.5,2\n0.0,yes,no,1e-300,-3\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1.0 x,0,1,0.5,2\n", columns=("s", "z", "y"))
@example(text="s,z,y,x0,x1\n1,0,1,\uff11,2\n", columns=("s", "z", "y"))
@example(text="\ufeffs,z,y,x0,x1\n1,0,1,0.5,2\n", columns=("z",))
def test_column_and_row_parsers_agree(diff_dir, text, columns):
    path = diff_dir / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _read_outcome(path, columns, row_wise=False) == _read_outcome(path, columns,
                                                                         row_wise=True)


def test_field_size_limit_still_applies(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("s,z,y,x0,x1\n1,0,1,0.25000000000000001,2\n", encoding="utf-8")
    limit = csv.field_size_limit(10)
    try:
        outcome = _read_outcome(path, ("s", "z", "y"), row_wise=False)
        assert outcome == _read_outcome(path, ("s", "z", "y"), row_wise=True)
    finally:
        csv.field_size_limit(limit)
    assert outcome[0] is csv.Error

@pytest.mark.parametrize("chunk", [3, 8, 13, 1 << 20])
def test_plain_text_scan_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(data_module, "_SCAN_CHUNK_BYTES", chunk)
    # 27 bytes, with "\r" and "\n" at 11 and 12: a chunk boundary of 3 falls between them
    head = b"s,z,y,x0,x1\r\n1,0,1,0.5,2\r\n"
    long_row = b"1,0,1,0.25000000000000001,2"
    path = tmp_path / "case.csv"
    limit = csv.field_size_limit(len(long_row) - 1)
    try:
        for text, plain in [
            # the long line spans bytes 27-53, across a boundary of every small chunk size
            (head + long_row + b"\r\n", False),
            (head + long_row[:-1] + b"\r\n", True),
            (head + long_row, False),
            # at byte 87: past the first chunk of every small chunk size
            (head * 3 + b'1,0,1,"0.5",2\n', False),
            (head * 3 + b"1,0,1,0.5\x00,2\n", False),
        ]:
            path.write_bytes(text)
            assert data_module._plain_text(path) is plain
            columns = ("s", "z", "y")
            assert _read_outcome(path, columns, row_wise=False) == _read_outcome(
                path, columns, row_wise=True)
    finally:
        csv.field_size_limit(limit)


def test_plain_csv_is_read_column_wise(tmp_path):
    ds = make_dataset(n=50, d=3)
    write_csv(ds, tmp_path / "plain.csv")
    results = []
    original = data_module._read_columns

    def recording(*args):
        results.append(original(*args))
        return results[-1]

    with mock.patch.object(data_module, "_read_columns", recording):
        back = load_csv(tmp_path / "plain.csv", CsvSchema(covariates=ds.covariate_names))
    assert len(results) == 1 and results[0] is not None
    assert np.array_equal(back.x, ds.x) and np.array_equal(back.y, ds.y)

def test_scale_affine_map():
    ds = Dataset(
        s=[0, 1, 1], z=[1, 0, 1], y=[0, 1, 0],
        x=np.array([[2.0], [4.0], [6.0]]),
        covariate_names=("v",), scaling=((2.0, 6.0),),
    )
    scaled = scale_covariates(ds)
    assert scaled.x[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert scaled.scaled


def test_scale_identity_on_unit_column():
    ds = Dataset(
        s=[0, 1, 0], z=[1, 0, 1], y=[0, 1, 1],
        x=np.array([[0.0], [0.4], [1.0]]),
        covariate_names=("v",), scaling=((0.0, 1.0),),
    )
    assert np.array_equal(scale_covariates(ds).x, ds.x)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_scale_idempotent(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5, 5, size=(8, 2))
    x[0] = -5.0
    x[1] = 5.0
    ds = Dataset(
        s=rng.integers(0, 2, 8), z=rng.integers(0, 2, 8), y=rng.integers(0, 2, 8),
        x=x, covariate_names=("a", "b"),
        scaling=tuple((float(x[:, j].min()), float(x[:, j].max())) for j in range(2)),
    )
    once = scale_covariates(ds)
    twice = scale_covariates(once)
    assert np.array_equal(once.x, twice.x)


def test_out_of_range_clamped_and_flagged():
    scaling = ((0.0, 10.0), (0.0, 1.0))
    x_scaled, flagged = apply_scaling(scaling, np.array([[12.0, 0.5], [5.0, 0.2]]))
    assert x_scaled[0, 0] == 1.0
    assert flagged.tolist() == [True, False]


def test_constant_column_rejected(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("s,z,y,good,flat\n1,0,1,0.2,7\n0,1,0,0.9,7\n", encoding="utf-8")
    with pytest.raises(DegenerateCovariateError, match="flat"):
        load_csv(path, CsvSchema(covariates=("good", "flat")))


def test_stratum_counts_single_record():
    ds = Dataset(
        s=[0], z=[1], y=[1], x=np.array([[0.5]]),
        covariate_names=("v",), scaling=((0.0, 1.0),), scaled=True,
    )
    counts = stratum_counts(ds)
    assert counts[0, 1] == 1 and counts.sum() == 1


def test_stratum_counts_balanced():
    s = np.repeat([0, 0, 1, 1], 100)
    z = np.tile(np.repeat([0, 1], 100), 2)
    ds = Dataset(
        s=s, z=z, y=np.zeros(400, dtype=int), x=np.linspace(0, 1, 400)[:, None],
        covariate_names=("v",), scaling=((0.0, 1.0),), scaled=True,
    )
    assert (stratum_counts(ds) == 100).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=4, max_value=200), st.integers(min_value=0, max_value=10**6))
def test_stratum_counts_sum_to_n(n, seed):
    ds = make_dataset(n=n, seed=seed)
    counts = stratum_counts(ds)
    assert counts.sum() == n and (counts >= 0).all()


def test_positivity_error_on_empty_stratum():
    ds = Dataset(
        s=[0, 0, 1], z=[0, 1, 0], y=[1, 0, 1], x=np.array([[0.1], [0.5], [0.9]]),
        covariate_names=("v",), scaling=((0.0, 1.0),), scaled=True,
    )
    with pytest.raises(PositivityError, match=r"\(s=1, z=1\)"):
        require_positivity(ds)


def test_subset():
    ds = make_dataset(n=10)
    sub = ds.subset([1, 1, 4])
    assert sub.n == 3 and sub.s[0] == sub.s[1] == ds.s[1]


def test_dataset_validates_binary():
    with pytest.raises(ValueError, match="only 0/1"):
        Dataset(
            s=[0, 2], z=[0, 1], y=[1, 0], x=np.zeros((2, 1)) + 0.5,
            covariate_names=("v",), scaling=((0.0, 1.0),),
        )


@pytest.mark.parametrize("column, values", [
    ("s", [0.5, 1.0, 0.0, 1.0]),
    ("y", [256, 1, 0, 1]),
    ("y", [np.nan, 1.0, 0.0, 1.0]),
    ("z", [0, 1, -1, 1]),
], ids=["s-half", "y-256", "y-nan", "z-minus-1"])
def test_dataset_checks_binary_values_before_the_cast(column, values):
    # an int8 cast first would take 0.5 to 0 and 256 to 0, and accept both
    columns = {"s": [0, 1, 0, 1], "z": [0, 0, 1, 1], "y": [1, 0, 0, 1], column: values}
    with pytest.raises(ValueError, match=f"{column} must contain only 0/1"):
        Dataset(**columns, x=np.full((4, 1), 0.5), covariate_names=("v",),
                scaling=((0.0, 1.0),))


def test_dataset_accepts_bool_and_float_binary_columns():
    ds = Dataset(s=np.array([False, True, False, True]), z=np.array([0.0, 0.0, 1.0, 1.0]),
                 y=np.array([1, 0, 0, 1], dtype=np.int64), x=np.full((4, 1), 0.5),
                 covariate_names=("v",), scaling=((0.0, 1.0),))
    for col, want in ((ds.s, [0, 1, 0, 1]), (ds.z, [0, 0, 1, 1]), (ds.y, [1, 0, 0, 1])):
        assert col.dtype == np.int8 and col.tolist() == want
