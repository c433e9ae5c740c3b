import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsep.errors import InvalidInputError
from mixsep.rttm import read_rttm, write_rttm

# one RTTM field: printable ASCII, no whitespace
fields = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12)
# times in whole milliseconds, the resolution of the written lines
turns = st.lists(
    st.tuples(fields, st.integers(0, 10**7), st.integers(0, 10**5)), max_size=20
)


@settings(max_examples=200, deadline=None)
@given(turns, fields)
def test_written_turns_read_back(tmp_path_factory, rows, file_id):
    path = tmp_path_factory.mktemp("rttm") / "hyp.rttm"
    written = [(label, start / 1000.0, (start + length) / 1000.0) for label, start, length in rows]
    write_rttm(path, written, file_id)
    got = read_rttm(path)
    assert len(got) == len(written)
    rounded = sorted((label, round(s, 3), round(e, 3)) for label, s, e in got)
    assert rounded == sorted((label, round(s, 3), round(e, 3)) for label, s, e in written)
    assert all(line.split()[1] == file_id for line in path.read_text().splitlines())


@pytest.mark.parametrize("file_id", ["", "my meeting", "a\tb", "two\nlines", " lead", "nb\u00a0sp"])
def test_file_id_with_whitespace_rejected(tmp_path, file_id):
    # "SPEAKER my meeting 1 ..." read back with "meeting" as its channel
    path = tmp_path / "hyp.rttm"
    with pytest.raises(InvalidInputError, match="is empty or holds whitespace"):
        write_rttm(path, [("spk00", 1.5, 2.5)], file_id)
    assert not path.exists()


@pytest.mark.parametrize("label", ["", "spk 1", "spk\t1", "spk1 "])
def test_speaker_label_with_whitespace_rejected(tmp_path, label):
    path = tmp_path / "hyp.rttm"
    with pytest.raises(InvalidInputError, match="is empty or holds whitespace"):
        write_rttm(path, [("spk00", 0.0, 1.0), (label, 1.5, 2.5)], "meeting")
    assert not path.exists()
