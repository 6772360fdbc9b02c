"""Every byte pin of kbound's output, in one table: the sha256 of what
``kbound ARGV`` prints, by argv.

The ``bound`` and ``scroll`` rows run each invocation in all three formats,
and the ``--d-to 3000`` rows reach far past them. The ``verify`` rows hold
the behaviour fingerprint over [36, 2000], which ``perfbench/pin.py``
copies, the CSV and table formats, two cases on their own, and three long or
far ranges. A refactor cannot change a printed byte unnoticed. Each
benchmark operation is pinned by ``perfbench/pins.json``.
"""

import ast
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from kbound.cli import _verify_args, main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

PINS = {
    "bound castelnuovo --r 5 --d 18 --format table": "393b5e395246b16c0bfd73e6d40a83090a1eb18c686f44948b8a176d5bf5fb87",
    "bound castelnuovo --r 5 --d 18 --format json": "56ed366a6fa920d212cd073809de1a3db77772a641c80ac7bd6da4a952c36469",
    "bound castelnuovo --r 5 --d 18 --format csv": "adf7bbf521bd96c71ea4eae90453f4b772b7d4fc06ba18fc02931da882622ee2",
    "bound castelnuovo --r 3 --d 7 --format table": "c77147a6c16053378bac2e15926a44d5858ef7b74efffd579a97d6b835416081",
    "bound castelnuovo --r 3 --d 7 --format json": "6a9894686a0656ccfc2c87077a9d66acb05784845d3dbfeaa14482cf5ee5ecac",
    "bound castelnuovo --r 3 --d 7 --format csv": "cc0bd0c18dfa09f8674955d7ded9a1894d4efffd45dd13328c843be54783945a",
    "bound castelnuovo --r 8 --d 40 --d-to 47 --format table": "3f2b44b4737207d1b9cddf082b96ba22523fde5787bfe52c6ca69d3b9e7b11dc",
    "bound castelnuovo --r 8 --d 40 --d-to 47 --format json": "48a578979038befc900f5f620b34c164f8d9f8be83ae645e9a8e25bb493a12d5",
    "bound castelnuovo --r 8 --d 40 --d-to 47 --format csv": "6089c51c3bd1723876fe7ebd2197b3fe3c74c276f76fe3323b358d5d6536c3ce",
    "bound halphen --d 22 --s 4 --format table": "f22cb7f240e8266d8bc2799f960974646a2a4a2bea90e14eec64a5f9a4a31793",
    "bound halphen --d 22 --s 4 --format json": "e8d22415a66c67400990eb69c92c1da10c4ca72d511aa3e82ed26bd85f06079c",
    "bound halphen --d 22 --s 4 --format csv": "721b9afb889b33e82700330d8d5988c56847c9b281a7236493de111f56206b79",
    "bound halphen --d 22 --s 4 --floor --format table": "1a55cb2cb6425f3e07eae206dfada119004ffe98adb8579124e2d1278a234a09",
    "bound halphen --d 22 --s 4 --floor --format json": "e8d22415a66c67400990eb69c92c1da10c4ca72d511aa3e82ed26bd85f06079c",
    "bound halphen --d 22 --s 4 --floor --format csv": "721b9afb889b33e82700330d8d5988c56847c9b281a7236493de111f56206b79",
    "bound halphen --d 21 --s 5 --d-to 26 --floor --format table": "8e5537fb9421ff05a083a241072d52bd03f99c3bc3d7391f82152fb5deb35beb",
    "bound halphen --d 21 --s 5 --d-to 26 --floor --format json": "7bfd027c0f124c96348767c8b3968dacbd891e3999622ce05db4dd28c0704106",
    "bound halphen --d 21 --s 5 --d-to 26 --floor --format csv": "728a39913b02fad4a64d1a75dc5214c4095eaf67d49fbc627776473c7041482b",
    "bound halphen --d 21 --s 5 --d-to 26 --format table": "8e5537fb9421ff05a083a241072d52bd03f99c3bc3d7391f82152fb5deb35beb",
    "bound halphen --d 21 --s 5 --d-to 26 --format json": "7bfd027c0f124c96348767c8b3968dacbd891e3999622ce05db4dd28c0704106",
    "bound halphen --d 21 --s 5 --d-to 26 --format csv": "728a39913b02fad4a64d1a75dc5214c4095eaf67d49fbc627776473c7041482b",
    "bound pi1 --d 33 --format table": "388c6766d32dc42401fc67b82db0a91e328c3ea51531c670dbb4cadac4f9cb49",
    "bound pi1 --d 33 --format json": "74c4ef717ece395000a26eb84874528ceba758b2d1d3be1a771e6e393b20fe34",
    "bound pi1 --d 33 --format csv": "03cc932b001625f8419c2fb217ae96bbe7a7a5cc6765eb13771ae66dd7bd654d",
    "bound pi1 --d 30 --d-to 37 --format table": "a86abbe409a1714b92d93eb366d428841448e38eb81fdcb9975ef14b6d3394b5",
    "bound pi1 --d 30 --d-to 37 --format json": "8da76a27563f80f5bfb08a51c505e301ccf395f5d01211d52d67252865d84662",
    "bound pi1 --d 30 --d-to 37 --format csv": "2431f65d53ac0e8e93146ed49a339019a12d3a82051da5e54bf4c0510735bc98",
    "bound pi2 --d 31 --format table": "d917c7b134e92d0de2dca30a4798c769311ea029f9753379507ab272852212c0",
    "bound pi2 --d 31 --format json": "9e616dcd27b6d8d54ad416fab4b4c6ebd366fe659582b4a51b05505d75aa3a4e",
    "bound pi2 --d 31 --format csv": "9c04df95349ad5ddbd3c5b486273d52842239065ac8df614a878c466a197f318",
    "bound pi2 --d 144 --d-to 150 --floor --format table": "25fd98190ceb96223b812b8b54e5e48068104c10c5bee1372a51b037c76f2053",
    "bound pi2 --d 144 --d-to 150 --floor --format json": "f3c51d190783901e99018f289230d5ef4e2d040728438110a4da3fbfc2d40d4b",
    "bound pi2 --d 144 --d-to 150 --floor --format csv": "7c5a3ddfe8d87a1d58d7992d24e56d9110b3cd8731e54bb64f6c6dc9aad531e4",
    "bound propagate --seed 4,9,16 --d 31 --format table": "8917ce43801522b0fc11107246a92e486701d1d3a67744e536cef6d5242c16e5",
    "bound propagate --seed 4,9,16 --d 31 --format json": "162053b65fb27b5df56b5a9a1665af3e6dcdb2a58774f65943b6103a55aca9d7",
    "bound propagate --seed 4,9,16 --d 31 --format csv": "689e9f2bb2edfa803c92505127a10dc5265d2b0972ac8173743ef90f2c27e080",
    "bound propagate --seed 4,10,19 --d 40 --d-to 43 --format table": "6fb6eb20597fd75de89abb12c409b48891a61ecf2297bb7c03c73b97dce07233",
    "bound propagate --seed 4,10,19 --d 40 --d-to 43 --format json": "973ecc2a5fd877dc03d3d2c3fe43b7b0298d7b37bd76e434d6636717f21ce78a",
    "bound propagate --seed 4,10,19 --d 40 --d-to 43 --format csv": "99cfa3e37ed59e2f67cae6f405121789ef40f5016cfcd2cf1115fb63cf697205",
    "scroll scan --d 18 --format table": "03a4f9513b903672ab22a061b53dcda32eda70c1be5ef1701cf8ef4afbf2a540",
    "scroll scan --d 18 --format json": "224ddf013f8e8afd4a1a9050c074bb610c141095a2b72f116672e29c690f315c",
    "scroll scan --d 18 --format csv": "f2f4c8789c3364cd7639b26d2ead2433972ff282572caa513c4b6f2bf3487344",
    "scroll scan --d 19 --format table": "f14db68d7c36be639823f8988c100862e93644024df02dc31fb88905f78cb204",
    "scroll scan --d 19 --format json": "5a48293ec1c6594d4bebe5bc890b13a5e1bd315f644345801048e5943e790600",
    "scroll scan --d 19 --format csv": "b9291cbebdfb72256ec2e78abb91cc764a55ba89e1cb7baae2ac0c6667755f59",
    "scroll class --alpha 9 --beta -9 --format table": "852cecb04e537dc0c9a175c01b29cd77746dd9791df9bfbab377f3a9ece8b4c3",
    "scroll class --alpha 9 --beta -9 --format json": "4a4f2209d54aab5b43829ada0160ebbdb5d0c62ff77d1fbcf24e8cc6e226caee",
    "scroll class --alpha 9 --beta -9 --format csv": "ccb373e44976c7148153cf12e1b886c72d38aa1798fdea94504046bb2708018b",
    "scroll class --alpha 7 --beta -3 --format table": "f18be5dd9f004ce537cc46cc5cefceb11865b39a669da36b5ee22f24baf5ce12",
    "scroll class --alpha 7 --beta -3 --format json": "b30bd59530852621913644127581e88c378e85cf5a116da134bacd01a49ab323",
    "scroll class --alpha 7 --beta -3 --format csv": "45455c3864520c546834c5873c1c0631f81b65d0d3a999746957c2519a90539c",
    "scroll class --alpha 1 --beta 0 --format table": "7d4b1cdc21e620101160d5c510b1030d1b2cc160c0b46f1a10a0a4f42e4d186f",
    "scroll class --alpha 1 --beta 0 --format json": "cf695b0db7a0f60be6c05ead5462f10d014b0c229b47d169a626d87aaffacbbc",
    "scroll class --alpha 1 --beta 0 --format csv": "67f13d243ca943acfc3741e6b60826055a9e1ba6ef7b83a380c26542a0808f2e",
    "scroll class --alpha 0 --beta -1 --format table": "92e3422e1a744282dd633f318dd30697a425d60603b0c8430d98590a29379cf5",
    "scroll class --alpha 0 --beta -1 --format json": "ca5560b78fa235e68c12fa4b926acd59e6d99b0f43a8b2e13234293d0ed83bd2",
    "scroll class --alpha 0 --beta -1 --format csv": "32a3cc8639976579b5076cd8e82a6a3034d2af76e8e1ae4b16e82d58d5d67638",
    "scroll extremal --d 18 --format table": "dbbafd4b361e88c777b9ced3a30d203e87b122fb6126e3632e25ec3d2f6170be",
    "scroll extremal --d 18 --format json": "06dc8c6009cd38f65cc0e90e360c423e7aca3cb5c2200d3ef327d97b14ff59a8",
    "scroll extremal --d 18 --format csv": "ccb373e44976c7148153cf12e1b886c72d38aa1798fdea94504046bb2708018b",
    "scroll minimize --d 18 --format table": "fd9647e4421ea421318dd319e1a39e969e693312b2185f5b4d5dbd5582ade4c9",
    "scroll minimize --d 18 --format json": "5f09a5cf50d4aa94ea7b35dfa10a6625b5dc71ae50e7e0c9dce83df485c16d69",
    "scroll minimize --d 18 --format csv": "d2124a1d50885b1f9d66041b593c12bb32b12a2f75217b372f0bb44cf32b1a4b",
    "scroll minimize --d 19 --format table": "c3796ddfa817cd25d7498efffbe09fe390dc32e095e2b5bd81bee5af52f2b951",
    "scroll minimize --d 19 --format json": "bf9d663ace174dc1181e209d54956ea7285a2f38e8020cc31766213d5f969b14",
    "scroll minimize --d 19 --format csv": "033638e2dd91bb54a0f32ffcf198399044613716ca3123d25874feba7c4d7529",
    # Profile propagation and the closed-form bounds far past the rows above.
    "bound propagate --seed 4,9,16 --d 20 --d-to 3000 --format json": "7829df3d9e1ec3e30f3812419c95200013fed90eecbe1fe0ffc647d7bca024eb",
    "bound propagate --seed 4,10,19 --d 20 --d-to 3000 --format json": "88764c6cf788b8207278fd145f45ca44599bc5c56feea7bbab19b4e02a2ed237",
    "bound castelnuovo --r 5 --d 5 --d-to 3000 --format json": "e9424c826a8b57f633ba1b33129ff99c072e0b203102ecd024a5e84fa30a41be",
    "bound castelnuovo --r 8 --d 8 --d-to 3000 --format json": "4572af0443996ef465cae0f01991fe7e7d1dc0ae36f48a8a9312557bcbdc0dc3",
    "bound halphen --s 4 --d 13 --d-to 3000 --format json": "ab88a670bee8f3115783cf9bd1991936361cbc18765036621d5f64ba2b8bf0d6",
    "bound halphen --s 5 --d 21 --d-to 3000 --format json": "6d7235928c493edb2cdb0133ed6d82e41bdbffa7a5d3729fb40d5b8d30f8caf9",
    "bound pi1 --d 2 --d-to 3000 --format json": "35fa2fb97946ee61a4ba9077c9a28329d26aa7c1b9fe2fd60d3480cda89b1d31",
    "bound pi2 --d 2 --d-to 3000 --format json": "872a6af12b846c6295ebe2d83b8f6dabcf0b83b083bcf9eba044fa97b93a9c44",
    # The behaviour fingerprint, which perfbench/pin.py copies.
    "verify all --from 36 --to 2000 --format json --no-timestamp": "739feb0f98c158b2edc4dfaed40f7c5576cdd2927f7c1139796ec3e12f4e6c97",
    # The other two formats, and the short csv range that
    # test_cli.py::test_verify_csv_renders_no_json_documents reads.
    "verify all --from 36 --to 120 --no-timestamp --format csv": "90c2a2aba885115b465f83fb0ae0e33e9ab36f795dd7146be9ef20e17f67b006",
    "verify all --from 36 --to 120 --no-timestamp --format table": "9b1cad0ad812ffa8993d2d95ddf3481a0e53f988654be6dc894529cc5686f2f1",
    "verify all --from 36 --to 40 --format csv": "46cca9343c25152ba83f5a4c292aa19cdd3e17cfdc941fff039becdade811821",
    # APPENDIX.min reads each degree's minimum off its own chain of frame
    # walk windows, and SHARPNESS, decided by the ring's factorization,
    # reads none; each case on its own must give the bytes it gives within
    # a full run.
    "verify appendix --from 36 --to 2000 --format json --no-timestamp": "9dd158872c484f30284c635f739bd1f53d9da22d0c7a07497b0ad81c2dfbea80",
    "verify sharpness --from 36 --to 2000 --format json --no-timestamp": "27253401ed336362661f2292f2b97b19ecff7a78564b82a81d8da45e2bfb0a21",
    # A long range, where the integer per-degree checks run far past every
    # sign certificate's scan; one as long as a run goes, where APPENDIX.min
    # chains 28 frame walk windows, whose lanes are 24 to 48 bits wide; and
    # a window walk seeded far from d = 36, in 56-bit lanes.
    "verify all --from 36 --to 5000 --format json --no-timestamp": "72e9eabcb55425d636c0adde16ada12dfebd6932f5cf6e70f11ab59bca94d01b",
    "verify all --from 36 --to 20000 --format json --no-timestamp": "3851e8745820c621f488bdabc0f6d8300f8f59b174f7cc0176d94865927f6c0b",
    "verify all --from 90000 --to 90199 --format json --no-timestamp": "bdfc3df58159aaf1b5ef40c4d34c9976fa0ccb7dceef38bc3d9f500e826542d0",
}


@pytest.mark.parametrize("command", sorted(PINS))
def test_cli_output_bytes_are_pinned(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[command]


def _workloads():
    """perfbench/workloads.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_operations_give_their_pinned_bytes(tmp_path):
    # every operation of perfbench/workloads.py's catalogue, run in this
    # process, against the sha256 of its output in perfbench/pins.json
    workloads = _workloads()
    pins, out = json.loads((BENCH / "pins.json").read_text())["sha256"], tmp_path / "out"
    differ = [workloads.op_key(argv) for argv in workloads.catalogue()
              if main([*argv, "--out", str(out)]) != 0
              or hashlib.sha256(out.read_bytes()).hexdigest() != pins.get(workloads.op_key(argv))]
    assert differ == []


def test_every_benchmark_operation_is_read_without_argparse():
    # the benchmark times only argv that cli._verify_args reads, so no
    # operation builds an argparse parser
    assert [argv for argv in _workloads().catalogue() if _verify_args(list(argv)) is None] == []


def test_the_benchmarks_fingerprint_is_a_row():
    # perfbench/pin.py refuses to pin unless the fingerprint holds; its copy
    # must be this table's row, read from its source without importing it
    values = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse((BENCH / "pin.py").read_text()).body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in ("FINGERPRINT_ARGV", "FINGERPRINT")}
    assert PINS[" ".join(values["FINGERPRINT_ARGV"])] == values["FINGERPRINT"]
