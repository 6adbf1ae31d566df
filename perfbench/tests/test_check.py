import json

from pb.check import check_compare, check_reproduce, parse_compare_table, parse_reproduce

TABLE = """strategy comparison (rounds to reproduce; '-' = failed)
case          | anduril | random
--------------+---------+-------
f1 (ZK-2247)  | 1       | 20
f2 (ZK-3157)  | 1       | -
"""

REFERENCE = {"f1": {"anduril": "1", "random": "20"},
             "f2": {"anduril": "1", "random": "-"}}


def test_matching_table_has_no_problems():
    table = parse_compare_table(TABLE)
    assert table == REFERENCE
    assert check_compare(table, REFERENCE, ["f1", "f2"]) == {}


def test_single_changed_cell_is_flagged():
    changed = TABLE.replace("| 20", "| 21")
    problems = check_compare(parse_compare_table(changed), REFERENCE, ["f1", "f2"])
    assert list(problems) == [("f1", "random")]


def test_missing_row_flags_every_cell():
    problems = check_compare(parse_compare_table(TABLE), REFERENCE, ["f1", "f2", "f3"])
    assert ("f3", "*") in problems


SCRIPT = {"case_id": "f3", "occurrence": 1}
STDOUT = ("ZK-4203: title\noracle: x\n"
          "reproduced in 1 rounds (0.0s): site@1\n" + json.dumps(SCRIPT, indent=2) + "\n")


def test_reproduce_parse_and_check():
    assert parse_reproduce(STDOUT) == (1, SCRIPT)
    reference = {"f3": {"rounds": 1, "script": SCRIPT}}
    signatures = {"f3": {"rounds": 1, "script": json.dumps(SCRIPT)}}
    assert check_reproduce("f3", STDOUT, reference, signatures) == []


def test_reproduce_mismatches_are_reported():
    reference = {"f3": {"rounds": 2, "script": SCRIPT}}
    signatures = {"f3": {"rounds": 1, "script": json.dumps({"case_id": "f3"})}}
    problems = check_reproduce("f3", STDOUT, reference, signatures)
    assert len(problems) == 2
    assert check_reproduce("f3", "NOT reproduced", reference, {}) != []
