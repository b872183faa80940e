"""The text-record rules every file format shares."""

import pytest

import kincal as kc
from kincal.cli import main
from kincal.errors import ParseError

GOOD_META = "kind depth_camera\nrows 1\ncols 1\njoint_count 1\n"

# (file name, its text, the line at fault, loader of the file's path)
BAD_FILES = [
    ("model.txt", "mcpc v1\nbase revolute 0 0 0 0 1 1\nee 0 0 0 0 0 0 1 1 1 1 1 1\n",
     2, kc.load_model),
    ("scene.txt", "scene v1\n# floor\nfrustum 1 2 3\n", 3, kc.load_scene),
    ("traj.txt", "trajectory v1\nleg 1 0 0 0\n", 2, kc.load_trajectory),
    ("ds/meta", "kind depth_camera\nrows one\n", 2,
     lambda path: kc.load_dataset(path.parent)),
    ("ds/points", "\n0 0 1 0.0 0.0\n", 2, lambda path: kc.load_dataset(path.parent)),
    ("ds/joints", "0 0 zero\n", 1, lambda path: kc.load_dataset(path.parent)),
]


@pytest.mark.parametrize("name, text, lineno, load", BAD_FILES,
                         ids=[case[0] for case in BAD_FILES])
def test_parse_error_names_file_and_line_once(tmp_path, name, text, lineno, load):
    (tmp_path / "ds").mkdir()
    (tmp_path / "ds" / "meta").write_text(GOOD_META)
    (tmp_path / "ds" / "points").write_text("0 0 1 0.0 0.0 1.0\n")
    (tmp_path / "ds" / "joints").write_text("0 0 0.0\n")
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load(path)
    message = str(info.value)
    assert message.startswith(f"{path}:{lineno}: ")
    assert message.count(str(path)) == 1


def test_probe_parse_error_names_file_and_line_once(tmp_path, capsys):
    model = kc.KinematicModel(kc.Segment(joint=kc.JointKind.REVOLUTE), (), kc.EESegment())
    kc.save_model(model, kc.default_mask(model), tmp_path / "model.txt")
    probes = tmp_path / "probes.txt"
    probes.write_text("# one joint\n0.5\n\nhalf\n")
    code = main(["evaluate", "--model", str(tmp_path / "model.txt"),
                 "--truth", str(tmp_path / "model.txt"), "--probes", str(probes)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{probes}:4: " in err
    assert err.count(str(probes)) == 1
