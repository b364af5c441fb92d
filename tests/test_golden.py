"""Golden-output gate: SHA-256 of every output file for each bundled
scenario x scheduler x migration, plus one sweep and `tests/qcap_demo.scn`
(the only queue_cap case), and of the text that `dispatchsim validate`
and `serialize` give for each bundled scenario.

A refactor must leave every digest unchanged. A change that alters
behaviour on purpose updates the digest it moves and says why.

Print the current digests with

    PYTHONPATH=src python tests/test_golden.py

or compare them all with the recorded ones, without pytest (so under
any supported Python), with

    PYTHONPATH=src python tests/test_golden.py --check

which prints each mismatch and exits 1 if there is one. Where a pyenv
`python3.X` shim refuses to run ("Python versions to be found at the
same time"), call that interpreter by its path, such as
`~/.pyenv/versions/3.12.1/bin/python`.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

from dispatchsim.cli import _read_scenario_text, main
from dispatchsim.scenario import load_scenario, serialize

SCENARIOS = ("migration_demo.scn", "paper_tables.scn", "sweep_demo.scn", "table6_demo.scn")
SWEEP = ("sweep", "sweep_demo.scn", "--sweep", "5,10,15,20,25,30", "--scheduler", "sjf")
QCAP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "qcap_demo.scn")

CASES = {
    f"{os.path.basename(scn)}:{sched}:{mig}": ("run", scn, "--scheduler", sched, "--migration", mig)
    for scn in (*SCENARIOS, QCAP)
    for sched in ("rr", "sjf")
    for mig in ("off", "on")
}
CASES["sweep_demo.scn:sweep"] = SWEEP

GOLDEN = {
    'migration_demo.scn:rr:off': {
        'hourly_response_jobs.csv': '628ac3305660ff5433d019131825382b007111c1daf7d20e6c4c1e60cb70b945',
        'jobs.csv': 'eb6b85e0c5646dd97e6b7329b8127edbbdb83e1c85f4e1438b44001c7a4d8cfa',
        'rejections.csv': '50b6362dc89fecf31f804c9e714d3c15d45fb8aa04e9caa3bc33eec8f899ed5e',
        'rejections_bar.csv': '773f6bc697ba047c757a66df835f8fbcb25a429f3ff0ab490c71ed9dfdd98756',
        'summary.csv': 'f8db10943231ebc235b53b49f0389295e069c5790cc48000dcca581491b8bdbd',
    },
    'migration_demo.scn:rr:on': {
        'hourly_response_jobs.csv': '0b20b25b755c455aa64d0e249f7389fda07b3824496d78d849860676e1ffc54f',
        'jobs.csv': '4faef950b22415303eee929af147e6e48854baa3662493c694ed6333acf9e5fd',
        'rejections.csv': '5cb4a222486d35fea28d629fd6d7a67bc476b5c51e73552849433a1d43dc076d',
        'rejections_bar.csv': 'f68e71fb417e2a1a8363b4049ba92d0acdc3a011a27678d39388f431150f25ba',
        'summary.csv': '697e328dd173ca83b67f819c2ca8bfafbfca7ea9e24e4927b1d87b2d024e49c8',
    },
    'migration_demo.scn:sjf:off': {
        'hourly_response_jobs.csv': '628ac3305660ff5433d019131825382b007111c1daf7d20e6c4c1e60cb70b945',
        'jobs.csv': 'eb6b85e0c5646dd97e6b7329b8127edbbdb83e1c85f4e1438b44001c7a4d8cfa',
        'rejections.csv': '50b6362dc89fecf31f804c9e714d3c15d45fb8aa04e9caa3bc33eec8f899ed5e',
        'rejections_bar.csv': '773f6bc697ba047c757a66df835f8fbcb25a429f3ff0ab490c71ed9dfdd98756',
        'summary.csv': 'f8db10943231ebc235b53b49f0389295e069c5790cc48000dcca581491b8bdbd',
    },
    'migration_demo.scn:sjf:on': {
        'hourly_response_jobs.csv': '0b20b25b755c455aa64d0e249f7389fda07b3824496d78d849860676e1ffc54f',
        'jobs.csv': '4faef950b22415303eee929af147e6e48854baa3662493c694ed6333acf9e5fd',
        'rejections.csv': '5cb4a222486d35fea28d629fd6d7a67bc476b5c51e73552849433a1d43dc076d',
        'rejections_bar.csv': 'f68e71fb417e2a1a8363b4049ba92d0acdc3a011a27678d39388f431150f25ba',
        'summary.csv': '697e328dd173ca83b67f819c2ca8bfafbfca7ea9e24e4927b1d87b2d024e49c8',
    },
    'paper_tables.scn:rr:off': {
        'hourly_response_UB1.csv': '62a3b4dfce13a5b22a54928ea1c67c2b7df92cd2d7e00dac2c9e3d70f457b073',
        'hourly_response_UB2.csv': '97fc29b7eca3cb54962d12b787faaf6a5f8551e0ae7fb7cdbae14b09695e2c7a',
        'hourly_response_UB3.csv': '5e266bb31a2fd4cf8057a35250c52ea03a8d9158ea26dd0f2c49e555e3727dcf',
        'hourly_response_UB4.csv': '7533a8bcd62b13ca19bc42266c840ce0016f4a14bfbb6098f686ba20fd241dde',
        'hourly_response_UB5.csv': '5e266bb31a2fd4cf8057a35250c52ea03a8d9158ea26dd0f2c49e555e3727dcf',
        'jobs.csv': 'e6acae411f4a00c06e9a809f1b57bfcf9dc614e73cb83d6e76ae2ea78617355d',
        'rejections.csv': '3ada8727e1ddc2c64224c14d4e500bd4375808ef1c4ced0a9d67151f19661b7f',
        'rejections_bar.csv': 'b7d5c31af9efd467de84e9caeccfca0f6a8d444adef24638c6ed66dd0ee76dc5',
        'summary.csv': '111b7b1eebbca5413a1129396f01be0a0cc2ee3fe64e602b54809ae80943abac',
    },
    'paper_tables.scn:rr:on': {
        'hourly_response_UB1.csv': '62a3b4dfce13a5b22a54928ea1c67c2b7df92cd2d7e00dac2c9e3d70f457b073',
        'hourly_response_UB2.csv': '97fc29b7eca3cb54962d12b787faaf6a5f8551e0ae7fb7cdbae14b09695e2c7a',
        'hourly_response_UB3.csv': '5e266bb31a2fd4cf8057a35250c52ea03a8d9158ea26dd0f2c49e555e3727dcf',
        'hourly_response_UB4.csv': '7533a8bcd62b13ca19bc42266c840ce0016f4a14bfbb6098f686ba20fd241dde',
        'hourly_response_UB5.csv': '5e266bb31a2fd4cf8057a35250c52ea03a8d9158ea26dd0f2c49e555e3727dcf',
        'jobs.csv': 'e6acae411f4a00c06e9a809f1b57bfcf9dc614e73cb83d6e76ae2ea78617355d',
        'rejections.csv': '3ada8727e1ddc2c64224c14d4e500bd4375808ef1c4ced0a9d67151f19661b7f',
        'rejections_bar.csv': 'b7d5c31af9efd467de84e9caeccfca0f6a8d444adef24638c6ed66dd0ee76dc5',
        'summary.csv': '111b7b1eebbca5413a1129396f01be0a0cc2ee3fe64e602b54809ae80943abac',
    },
    'paper_tables.scn:sjf:off': {
        'hourly_response_UB1.csv': '62a3b4dfce13a5b22a54928ea1c67c2b7df92cd2d7e00dac2c9e3d70f457b073',
        'hourly_response_UB2.csv': '97fc29b7eca3cb54962d12b787faaf6a5f8551e0ae7fb7cdbae14b09695e2c7a',
        'hourly_response_UB3.csv': '5e266bb31a2fd4cf8057a35250c52ea03a8d9158ea26dd0f2c49e555e3727dcf',
        'hourly_response_UB4.csv': '7533a8bcd62b13ca19bc42266c840ce0016f4a14bfbb6098f686ba20fd241dde',
        'hourly_response_UB5.csv': '5e266bb31a2fd4cf8057a35250c52ea03a8d9158ea26dd0f2c49e555e3727dcf',
        'jobs.csv': 'e6acae411f4a00c06e9a809f1b57bfcf9dc614e73cb83d6e76ae2ea78617355d',
        'rejections.csv': '3ada8727e1ddc2c64224c14d4e500bd4375808ef1c4ced0a9d67151f19661b7f',
        'rejections_bar.csv': 'b7d5c31af9efd467de84e9caeccfca0f6a8d444adef24638c6ed66dd0ee76dc5',
        'summary.csv': '111b7b1eebbca5413a1129396f01be0a0cc2ee3fe64e602b54809ae80943abac',
    },
    'paper_tables.scn:sjf:on': {
        'hourly_response_UB1.csv': '62a3b4dfce13a5b22a54928ea1c67c2b7df92cd2d7e00dac2c9e3d70f457b073',
        'hourly_response_UB2.csv': '97fc29b7eca3cb54962d12b787faaf6a5f8551e0ae7fb7cdbae14b09695e2c7a',
        'hourly_response_UB3.csv': '5e266bb31a2fd4cf8057a35250c52ea03a8d9158ea26dd0f2c49e555e3727dcf',
        'hourly_response_UB4.csv': '7533a8bcd62b13ca19bc42266c840ce0016f4a14bfbb6098f686ba20fd241dde',
        'hourly_response_UB5.csv': '5e266bb31a2fd4cf8057a35250c52ea03a8d9158ea26dd0f2c49e555e3727dcf',
        'jobs.csv': 'e6acae411f4a00c06e9a809f1b57bfcf9dc614e73cb83d6e76ae2ea78617355d',
        'rejections.csv': '3ada8727e1ddc2c64224c14d4e500bd4375808ef1c4ced0a9d67151f19661b7f',
        'rejections_bar.csv': 'b7d5c31af9efd467de84e9caeccfca0f6a8d444adef24638c6ed66dd0ee76dc5',
        'summary.csv': '111b7b1eebbca5413a1129396f01be0a0cc2ee3fe64e602b54809ae80943abac',
    },
    'qcap_demo.scn:rr:off': {
        'hourly_response_UBL.csv': 'b9c4f9bf9c63d0f0c5e943e7ab550526eb8b325f3cf18c7314b2952753ba15c5',
        'hourly_response_UBS.csv': 'd1415cc0ea2d4723130559b43ccd2a19accaf0d35dd6a54d198b7f45ad1ddc8b',
        'jobs.csv': 'e7e9315eb46529dced890d8a5fba0592e481adc2c12e0c356e64d6c474ada5c2',
        'rejections.csv': '501271fe4ff786a25543569bcfac7b0194a5cee12ba9581e1e4763954542f612',
        'rejections_bar.csv': 'fcc18ba27097089b2a4ce010e4b69dbfa15b8bf88d8dc4b643a0a21dec4e6cb0',
        'summary.csv': 'df2bc94b6ba8dd1034e3f24e4301533f1dfd9f021548520212da01a8dc3ae873',
    },
    'qcap_demo.scn:rr:on': {
        'hourly_response_UBL.csv': 'bd0641b0693e068c8a33560a6ec407893d9f855e06a85cac1cb94b9af3a9e1cd',
        'hourly_response_UBS.csv': '8576e348c22a76507768529342422b827c4d25a23db582b5bc9f9c27777bafb9',
        'jobs.csv': 'f6537bc83104aec36b0735bce641e54c2a57a0d0669caecbbbeb76696e563940',
        'rejections.csv': '3d1aae5bde4d75e506da90de6bebccc9b79b7c4e56d260b3d67b950603569a75',
        'rejections_bar.csv': '7505125eabaad9be96951bdfa4f86ff04108842fb4c28ed74f02ab3e6c3ff36a',
        'summary.csv': 'e8ef42469ba270df9bf540f3e645157e58ec0f69d5f7b37c30ca1d9ed843b87f',
    },
    'qcap_demo.scn:sjf:off': {
        'hourly_response_UBL.csv': '4a2b894bbbfd6e846485870e76bb4a986ea17e9912cd2514ab4ac3aebb3dfa66',
        'hourly_response_UBS.csv': 'ea946fb6c96cdf8926e15946c34a178f59d3951c5c889626fa4559178ae69dde',
        'jobs.csv': '9d0d9dad945626207ac12dcd7c555398715f17c39ca3f4747b40fe956e387517',
        'rejections.csv': 'dedaa65bba413796a6e44b4f34d524107a4e32b82474253f3b5563ab2374fb04',
        'rejections_bar.csv': 'bf2d30330bf3260caef625e05fa7c661cc57da42c7168adc058052b5f879cea0',
        'summary.csv': '137aeb940fef85275bdf1e316aacead5f311971a90e6181fb248df2896597168',
    },
    'qcap_demo.scn:sjf:on': {
        'hourly_response_UBL.csv': 'cc76cd1051efd8c468bd9bc89cba042f250cc1262a0ded113e8c1c14cae8b35b',
        'hourly_response_UBS.csv': '5a02c98c25938e64d1bd0b43817eb3b28d39b47627bcbc0fb1b4db699c9871bb',
        'jobs.csv': '0ba8f961b95f5ce070e3432a8288d697d19540f8eff65d7c9b5e098de018d757',
        'rejections.csv': '7819ed289689052332bbd9b1069ec03e7a009324ba67dbc8154a8e99af26f31f',
        'rejections_bar.csv': 'f3bb004372557375b64b288c370c5b94336ae62c52f95a14f272209ae925b85a',
        'summary.csv': '133b64184c52bf3cfd4bcf97a112652d5ba8b4cc088ce40d046297db15be8bc8',
    },
    'sweep_demo.scn:rr:off': {
        'hourly_response_UBL.csv': '3fc5a72cf2507f1521e2a58087758f1751a627611bc94af5b679cb389226cfd6',
        'hourly_response_UBS.csv': 'fa19197a4044e4c04b7c86721377c166d2417b486dc7bf466acd97b0eadace91',
        'jobs.csv': 'abcd987153c184756865fc2938350d64d95f72d9e22801879e6100960b675d72',
        'rejections.csv': '819c7556001bb7a35ac3df27ab09fd1314dff1ea534ce00def2f9eb89f6d59b4',
        'rejections_bar.csv': '98609463361a527871c756e9a4e3d4ec4e0da2bb75bc830a3e033cf836ca6617',
        'summary.csv': '2f2e91c620ac2cad9e75edd46e5cb51d088b96756fbbb9a9b127c4711f4f77ca',
    },
    'sweep_demo.scn:rr:on': {
        'hourly_response_UBL.csv': '3fc5a72cf2507f1521e2a58087758f1751a627611bc94af5b679cb389226cfd6',
        'hourly_response_UBS.csv': 'fa19197a4044e4c04b7c86721377c166d2417b486dc7bf466acd97b0eadace91',
        'jobs.csv': 'abcd987153c184756865fc2938350d64d95f72d9e22801879e6100960b675d72',
        'rejections.csv': '819c7556001bb7a35ac3df27ab09fd1314dff1ea534ce00def2f9eb89f6d59b4',
        'rejections_bar.csv': '98609463361a527871c756e9a4e3d4ec4e0da2bb75bc830a3e033cf836ca6617',
        'summary.csv': '2f2e91c620ac2cad9e75edd46e5cb51d088b96756fbbb9a9b127c4711f4f77ca',
    },
    'sweep_demo.scn:sjf:off': {
        'hourly_response_UBL.csv': '3fc5a72cf2507f1521e2a58087758f1751a627611bc94af5b679cb389226cfd6',
        'hourly_response_UBS.csv': 'fa19197a4044e4c04b7c86721377c166d2417b486dc7bf466acd97b0eadace91',
        'jobs.csv': 'abcd987153c184756865fc2938350d64d95f72d9e22801879e6100960b675d72',
        'rejections.csv': '819c7556001bb7a35ac3df27ab09fd1314dff1ea534ce00def2f9eb89f6d59b4',
        'rejections_bar.csv': '98609463361a527871c756e9a4e3d4ec4e0da2bb75bc830a3e033cf836ca6617',
        'summary.csv': '2f2e91c620ac2cad9e75edd46e5cb51d088b96756fbbb9a9b127c4711f4f77ca',
    },
    'sweep_demo.scn:sjf:on': {
        'hourly_response_UBL.csv': '3fc5a72cf2507f1521e2a58087758f1751a627611bc94af5b679cb389226cfd6',
        'hourly_response_UBS.csv': 'fa19197a4044e4c04b7c86721377c166d2417b486dc7bf466acd97b0eadace91',
        'jobs.csv': 'abcd987153c184756865fc2938350d64d95f72d9e22801879e6100960b675d72',
        'rejections.csv': '819c7556001bb7a35ac3df27ab09fd1314dff1ea534ce00def2f9eb89f6d59b4',
        'rejections_bar.csv': '98609463361a527871c756e9a4e3d4ec4e0da2bb75bc830a3e033cf836ca6617',
        'summary.csv': '2f2e91c620ac2cad9e75edd46e5cb51d088b96756fbbb9a9b127c4711f4f77ca',
    },
    'sweep_demo.scn:sweep': {
        'rejections.csv': '9cf4d4fa99ef401ecff8f1bada5fcd0f48a3cba63624fda0aa38d2e00b417c79',
        'rejections_bar.csv': 'cc4e12fb34c03e822d21b70331176d04bdac23a5701cd09c057fa1e274909bd8',
    },
    'table6_demo.scn:rr:off': {
        'hourly_response_jobs.csv': 'cdf6a35641c4ca8b0bf064bffcad86fcc6e8101c38df838b6df94f8e17224eae',
        'jobs.csv': 'f0ecc9a819f7caeb3a620628982cfda45fde8381bb72bc146ef65ce99d95f0bb',
        'rejections.csv': 'd076726aabb031df902f9a9a46a0709d2efac33556233812e1a4a78e495f6322',
        'rejections_bar.csv': '867a2707a6d695955dfeb2c8150334e49ebe23ad38f3e327b0ce912221deaf3a',
        'summary.csv': '14b89f1adb5e008324cf692b202dd14b16eb53498f6ef5ad46ac33632d31ed83',
    },
    'table6_demo.scn:rr:on': {
        'hourly_response_jobs.csv': 'cdf6a35641c4ca8b0bf064bffcad86fcc6e8101c38df838b6df94f8e17224eae',
        'jobs.csv': 'f0ecc9a819f7caeb3a620628982cfda45fde8381bb72bc146ef65ce99d95f0bb',
        'rejections.csv': 'd076726aabb031df902f9a9a46a0709d2efac33556233812e1a4a78e495f6322',
        'rejections_bar.csv': '867a2707a6d695955dfeb2c8150334e49ebe23ad38f3e327b0ce912221deaf3a',
        'summary.csv': '14b89f1adb5e008324cf692b202dd14b16eb53498f6ef5ad46ac33632d31ed83',
    },
    'table6_demo.scn:sjf:off': {
        'hourly_response_jobs.csv': 'a09f15989907ca9433363d63c52b1b92a96cfa9f2940c94ff5b57188168f376b',
        'jobs.csv': '307681ee0fecaae4437ab2d4c03e56ea8ecba3e75cef3f209397a0dbdde2c15a',
        'rejections.csv': 'd076726aabb031df902f9a9a46a0709d2efac33556233812e1a4a78e495f6322',
        'rejections_bar.csv': '867a2707a6d695955dfeb2c8150334e49ebe23ad38f3e327b0ce912221deaf3a',
        'summary.csv': '91263189ca63de02ce3219aff2d2b9c0162964ba0111c813ef56af74cb35d1ab',
    },
    'table6_demo.scn:sjf:on': {
        'hourly_response_jobs.csv': 'a09f15989907ca9433363d63c52b1b92a96cfa9f2940c94ff5b57188168f376b',
        'jobs.csv': '307681ee0fecaae4437ab2d4c03e56ea8ecba3e75cef3f209397a0dbdde2c15a',
        'rejections.csv': 'd076726aabb031df902f9a9a46a0709d2efac33556233812e1a4a78e495f6322',
        'rejections_bar.csv': '867a2707a6d695955dfeb2c8150334e49ebe23ad38f3e327b0ce912221deaf3a',
        'summary.csv': '91263189ca63de02ce3219aff2d2b9c0162964ba0111c813ef56af74cb35d1ab',
    },
}


TEXT_GOLDEN = {
    'migration_demo.scn': {
        'validate': '2293b25ed7aa7b299d70dd9113972df63c34b2386bedfe2ef565c42d85086f53',
        'serialize': '5eaa2799a983bf36276046616381e1d9252dc7503a425b8f4cc175a3c14d5c67',
    },
    'paper_tables.scn': {
        'validate': '12e6028a3ec0a8103a35dd7eb56b8cbc299625ccc3285ed6ef6d8a7c6a71f182',
        'serialize': '36bf643cca945f2ff74178780c3ef02cbcbe0c0be7be9402b57dab0a9b1c16de',
    },
    'sweep_demo.scn': {
        'validate': 'c6090299def5ef36cb17ef91f6a5c3af06783972b764d1d911014120eb759102',
        'serialize': '64f80247b66feb83f45d2e32df6abcba80dab0e4ea0f0144f4b17a4d256a6fc6',
    },
    'table6_demo.scn': {
        'validate': 'b0d4adb99e011ddd6af75595c8ec6f292fb4c92d1d55b8bbe689eb97ed261fd7',
        'serialize': '9cdf85ad19ed4478fd031dace52b72037ec4c193c7a15c12f64173153b0e10fa',
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_digests(scn) -> dict:
    """Digests of `dispatchsim validate <scn>` stdout and of the
    canonical serialized form of the scenario."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["validate", scn]) == 0
    text = serialize(load_scenario(_read_scenario_text(scn)))
    return {"validate": _sha256(stdout.getvalue()), "serialize": _sha256(text)}


def output_digests(argv, out_dir) -> dict:
    assert main([*argv, "--out", str(out_dir)]) == 0
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def current_digests():
    """(GOLDEN, TEXT_GOLDEN) as the code now gives them."""
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {}
        for case in sorted(CASES):
            with contextlib.redirect_stdout(io.StringIO()):
                outputs[case] = output_digests(CASES[case], os.path.join(tmp, case))
    return outputs, {scn: text_digests(scn) for scn in SCENARIOS}


# parametrized here rather than by decorator, so that `--check` runs
# without pytest installed; the test ids are the same
def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", sorted(CASES))
    if "scn" in metafunc.fixturenames:
        metafunc.parametrize("scn", SCENARIOS)


def test_golden_outputs(case, tmp_path, capsys):
    assert output_digests(CASES[case], tmp_path / "out") == GOLDEN[case]


def test_golden_text(scn):
    assert text_digests(scn) == TEXT_GOLDEN[scn]


def check() -> int:
    """Compare every digest with the recorded one; 1 on any mismatch."""
    outputs, texts = current_digests()
    mismatches = 0
    for label, got, want in (("GOLDEN", outputs, GOLDEN), ("TEXT_GOLDEN", texts, TEXT_GOLDEN)):
        for case in sorted(got.keys() | want.keys()):
            g, w = got.get(case, {}), want.get(case, {})
            for name in sorted(g.keys() | w.keys()):
                if g.get(name) != w.get(name):
                    mismatches += 1
                    print(f"{label}[{case!r}][{name!r}]: {g.get(name)} != recorded {w.get(name)}")
    total = sum(map(len, GOLDEN.values())) + sum(map(len, TEXT_GOLDEN.values()))
    print(f"{sys.version.split()[0]}: {total} recorded digests, {mismatches} mismatched")
    return 1 if mismatches else 0


def print_digests():
    outputs, texts = current_digests()
    for label, digests in (("GOLDEN", outputs), ("TEXT_GOLDEN", texts)):
        print(f"{label} = {{")
        for case, files in digests.items():
            print(f"    {case!r}: {{")
            for name, digest in files.items():
                print(f"        {name!r}: {digest!r},")
            print("    },")
        print("}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print or check the golden digests.")
    parser.add_argument("--check", action="store_true", help="compare with the recorded digests")
    if parser.parse_args().check:
        sys.exit(check())
    print_digests()
