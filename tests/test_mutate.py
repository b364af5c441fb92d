"""The mutant list of `mutate.py` stays current with src/: each mutant's
`old` text occurs exactly once there, and each kill-set names tests that
exist. Running the mutants is `python tests/mutate.py`, outside the suite."""

import re

import mutate


def test_each_mutant_edits_one_place_and_names_real_tests():
    names = [m.name for m in mutate.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutate.MUTANTS:
        assert [*mutate.locate(m.old).values()] == [1], m.name
        assert m.new != m.old, m.name
        assert bool(m.kills) != bool(m.equivalent), m.name
        for node in m.kills:
            path, _, test = node.partition("::")
            source = (mutate.ROOT / path).read_text(encoding="utf-8")
            if test:
                assert re.search(rf"^def {re.escape(test.split('[')[0])}\(", source, re.M), node
