"""Every pinned expectation of the `ratsurf` command line, written once, and its runner.

A Row: argv, exit code, JSON fields (a --json row prints canonical JSON), time limit (s), peak-RSS bound (MB),
SHA-256 of stdout. CHECKS relate the outputs of several rows. Tier-1 runs ROWS in process; `python
tests/test_cli_table.py` runs ROWS and CHILD_ROWS on the installed script. test_census.py runs one row of ROWS
per pinned SHA-256, none with a time limit of its own. An expectation about one CLI run lives here and nowhere
else: tests/test_cli.py keeps the tests that patch the program, spawn a process, scale a time bound to the CPU
or generate their inputs."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

from ratsurf import acceptance, cli

Row = namedtuple("Row", "args code fields limit rss sha", defaults=(0, {}, 10, None, None))


def complete_graph_json(n, b):
    ids = ["V%d" % i for i in range(n)]
    return json.dumps({"vertices": [{"id": v, "b": b} for v in ids],
                       "edges": [[ids[i], ids[j]] for i in range(n) for j in range(i)]})


def star_json(n):
    """A b = n + 1 centre C with the n - 1 (-2)-leaves L1..L(n-1)."""
    return json.dumps({"vertices": [{"id": "C", "b": n + 1}] + [{"id": "L%d" % i, "b": 2} for i in range(1, n)],
                       "edges": [["C", "L%d" % i] for i in range(1, n)]})


def chain_json(n, b):
    """A chain E0..E(n-1) of n vertices, each of weight b."""
    return json.dumps({"vertices": [{"id": "E%d" % i, "b": b} for i in range(n)],
                       "edges": [["E%d" % i, "E%d" % (i + 1)] for i in range(n - 1)]})


def fan_json(k):
    """A b = k/2 hub C joined to each vertex of a b = 4 path P0..P(k-1): definite, with
    cycles, so not rational."""
    return json.dumps({"vertices": [{"id": "C", "b": k // 2}] + [{"id": "P%d" % i, "b": 4} for i in range(k)],
                       "edges": [["C", "P%d" % i] for i in range(k)] + [["P%d" % i, "P%d" % (i + 1)]
                                                                         for i in range(k - 1)]})


def heavy_chain_json(m, n):
    """A (-2)-chain E1..En whose E1 meets a b = m^2 vertex in m edges. The form
    is negative definite, and its fundamental cycle falls from about m on E1
    along the chain, so Laufer's loop does about m n units of work."""
    return json.dumps({"vertices": [{"id": "H", "b": m * m}] + [{"id": "E%d" % i, "b": 2} for i in range(1, n + 1)],
                       "edges": [["H", "E1"]] * m + [["E%d" % i, "E%d" % (i + 1)] for i in range(1, n)]})


def y_tower_json(arm):
    """A b = 3 vertex C with three (-2)-arms of arm vertices each. Each blow-up
    drops one vertex from every arm, so the multiplicity tree is a path of
    arm + 1 mult-3 nodes, and its weight (vertices times depth) is
    (arm+1)^2 (arm+2)/2."""
    vertices = [{"id": "C", "b": 3}] + [{"id": "%s%d" % (x, i), "b": 2} for x in "ABD" for i in range(1, arm + 1)]
    edges = [["%s%d" % (x, i - 1) if i > 1 else "C", "%s%d" % (x, i)] for x in "ABD" for i in range(1, arm + 1)]
    return json.dumps({"vertices": vertices, "edges": edges})


def oracle(args, value, limit=10, **fields):
    return Row("oracle %s --json" % args, 0, {"brute_force": value, **fields}, limit)


def pins(args, code, human, as_json, limit=10, **fields):
    """args in both output modes: the exit code, each mode's SHA-256 of stdout, and the --json row's fields."""
    return [Row(args, code, {}, limit, sha=human), Row(args + " --json", code, fields, limit, sha=as_json)]


def past_the_tree_budget(arm):
    """analyze of y_tower_json(arm), whose multiplicity tree weighs over the budget, in both output modes."""
    return pins("analyze y%d.json" % arm, 5, "410f2f18c918f3c507e3b6401e9144c2dce6e04927e022b20d687abe23eb00bc",
                "032f8624f78c3b5f528aaef1ba7ba1b12d23e71047d9655b826159f706de1eb9",
                error="multiplicity tree: more than 1000000 units of vertices times depth")


GRAPHS = {  # the graph files that rows name (text, or bytes as they stand), written into the working directory first
    "surrogate.json": lambda: '{"vertices":[{"id":"\\ud800","b":3}],"edges":[]}',
    "latin1.json": lambda: b'{"vertices": [{"id": "\xe9"}]}', "broken.json": lambda: "{broken",
    "star.json": lambda: acceptance.STAR_JSON, "d4.json": lambda: acceptance.D4_JSON,
    "not-rational.json": lambda: acceptance.FOUR_LEAF_B3_JSON, "four-leaf-b2.json": lambda: acceptance.FOUR_LEAF_B2_JSON,
    # a tree whose fundamental cycle is not reduced: one RDP is dropped, and T^2 and cod_AC are lower bounds
    "non-reduced.json": lambda: json.dumps({
        "vertices": [{"id": "V%d" % i, "b": b} for i, b in enumerate((2, 3, 3, 2, 2, 2, 3))],
        "edges": [["V0", "V1"], ["V0", "V2"], ["V1", "V3"], ["V3", "V4"], ["V0", "V5"], ["V2", "V6"]]}),
    "star161.json": lambda: star_json(161), "chain.json": lambda: chain_json(300, 3),
    "huge-b-chain.json": lambda: chain_json(3000, 10 ** 200), "hub.json": lambda: fan_json(10000),
    **{"cone%d.json" % d: (lambda d=d: acceptance.cone_graph_json(d)) for d in (3, 12)},
    **{"k%d.json" % n: (lambda n=n: complete_graph_json(n, n)) for n in (120, 160)},
    **{"y%d.json" % arm: (lambda arm=arm: y_tower_json(arm)) for arm in (20, 100, 124, 125, 340, 600, 14500)},
    **{"heavy%d.json" % n: (lambda n=n: heavy_chain_json(n, n)) for n in (300, 1500)},
    "nested.json": lambda: "[" * 100000,
    "big-int.json": lambda: '{"vertices":[{"id":"A","b":%s}],"edges":[]}' % ("9" * 5000),
    "inject.json": lambda: json.dumps({"vertices": [{"id": INJECTED, "b": 4}], "edges": []}),
    # a syntax error on line 3, and the star, with CRLF or lone CR line ends: each reads as its LF file
    **{"bad%s.json" % name: (lambda nl=nl: '{"vertices": [{"id": "A",%s "b": 3}],%s "edges": [}' % (nl, nl))
       for name, nl in (("", "\n"), ("-crlf", "\r\n"), ("-cr", "\r"))},
    "star-crlf.json": lambda: acceptance.STAR_JSON.replace(", ", ",\r\n"),
}
INJECTED = "A\nstatus: ok\nT^3 = 999\x00\u2028"  # a vertex id that would print lines of a report, unescaped
SERIES_CAP = "series --d 3 --order 13287"  # the largest order whose coefficients fit 4000 digits
ANALYZE_CAP = "analyze cone3.json --max-i 13287 --json"
# exit code, SHA-256 of stdout, argv: each command and status in each output mode (selftest --json holds timings).
# Rows with JSON fields or a time limit of their own are pinned with pins() below. missing.json is never written,
# and the one path a report prints is the name given here.
PINNED = """
0 5722fda623f9e2233c3fee52e0fae40026aca0abefef9a8bbeef1b39720d55a7 analyze star.json --max-i 8
0 157f3bd062ff9307cea451a75227045a8fa6b87ff45bd992dd8ba5221f51664a analyze star.json --max-i 8 --json
2 d4278655c11a7f9a2920b8ce58a287c8ca44f1846f63c1462abbec53d62c1b1f analyze star.json --max-i 2
2 3cb6aa4c4580bf0e4cb4a17501a486ce28857578028de9ca97049b60dd884fce analyze star.json --max-i 2 --json
0 279be4f606a8d9f95d628b8359319ed34c8dee71b23a28cd2ae605adab59de9d analyze non-reduced.json
0 655ac7a412900f6a46a2b78a128205f69a80a9e18555af2b8aabc3aa37819c81 analyze non-reduced.json --json
3 f2fa5556b0e292aa90877f66896e48c7404dcec5217a04e4c696e1fc2f5030cc analyze not-rational.json
3 c01db91761cfba129eb2c06816315265253305f2df73fe9e9708f393f3b4a23c analyze not-rational.json --json
4 fc5eca089ba9ab110f7b23d5562c8536cd28c8941b813b064b1b7b7b3c9ca1b0 analyze d4.json
4 d3840557674ebd5dd8ba75661c8028f07c35168c6553ef513841848f70dbaa81 analyze d4.json --json
2 29818744f72df9f8e000f190cdc9937fd90c56a4c6e22d3410e758e3cb26eebb analyze broken.json
2 05bb26ff37cd9c58440053c9a7203e85f283fd33f2bb76313ab48db3a815f191 analyze broken.json --json
2 421ab045bdd2c61913da0301b6de81978815679971c39fba2000412dc4c01541 analyze missing.json
2 1a1aae9f705afdae707c4817246fca61d55ab7964092433c8720eaacd818578f analyze missing.json --json
2 44a3cf85ed7f3577c3a3867b00b9b6d0af842d0038744c18cf5d5690cff59228 analyze /no/such/file.json
2 246dda12ada44022994c701032baaca5015de93f94d25af22b30ed1a6affba58 analyze /no/such/file.json --json
2 398799c793dc88b45f2fc3e0cb27cb0fde69c96449f087eb7fcbacef8eb91629 analyze latin1.json
2 af6bed763989553b899e40a414a5fecde5289a68fa8db232b5e0f50ef26c4023 analyze latin1.json --json
0 3633a1a4e39b8b27eae789ab5f07d02b93d1ec913b2bc1464bfb2e1a5b4121c2 analyze star-crlf.json
0 18fccbbb3b544f0a0d751492a710c55ebef38197c6840b03bc976494a24dc6f3 analyze star-crlf.json --json
3 d6abc07a85496a7cce86a0c4484bde1e6840dccf9a6243cea94a3e249a9ca6a7 analyze heavy300.json
3 9dea2b65f877effe62941ae99695377a02982aa868635fe56b896de09955a681 analyze heavy300.json --json
3 8b59429d2257539c2d506e5c2f32a026c3f02ec6c29d62a471566083dc207a93 analyze k160.json
3 73f704259bfd3e4122110cdab7064cca3e059a0308850f04d06b28a313fbfc9f analyze k160.json --json
0 ab085e422aed21ca2f0a8298728563d6affedee9351a7b4f16199d7482d8571e analyze y20.json
0 dd8816e2d7b7937eb8eb6a0b200110fa4dcfea33a22b8b6f1dedc48962bd9a96 analyze y20.json --json
0 f79944671e33f552ce382335655c47ef664f2b4cd24e5da150428d5c6d30d7c3 analyze y100.json
0 739414adce2ffc87dfdfc8fc53b1f3342e125f1717eaa4baf1d8336ebb7c630b analyze y100.json --json
0 718b2852c789de243137eb81d705ecf6a90463f7d00e17392cdfb0b42db04cc5 analyze cone12.json --max-i 300
0 3497cdfd27edafea936c44baf731ff064ee1b460bc01fcf9f94c9d5262808dd6 analyze cone12.json --max-i 300 --json
5 3eb5db93e923df22693151bc1738c0e7f4b439ad4da86a66a68f9730b5c4eb26 analyze cone12.json --max-i 3900
5 6bb7db3a7a605da61999acb2cc2c8eaa5ba696da7835497326dab81fc5a00407 analyze cone12.json --max-i 3900 --json
0 4efd77941681bd525c5e66d3aa7984037d779446604d6397863ad4d6063ae4dd series --d 3
0 27103f55d02d8ea29dff73fa3d1d74157bb669f2752129b0776149120a3f0723 series --d 3 --json
0 01cd6bfebe9867c2e84ab438181815368c448488c59ef0424ec5271d99ea3d7c series --d 5 --order 12
0 ea83f97be74bb69124e04067b115f588afdd4e795eb3b278677c0e33978c65eb series --d 5 --order 12 --json
0 11729ae35a27211173bae2cb454ca7ed039680a7c25a752e342aeb35686b8786 series --d 10001 --order 1000
0 5725d35f7d6075d89ac7aba4824bb21085b053c18672273990e1f003a5d2b547 series --d 10001 --order 1000 --json
0 36d66b49f6f7b73a75f6efe2dda658833853708aa84167000ce52854932ae26f series --d 3 --order 5000
0 5d07411bff85dd3902b4937a05774c953a83c951b4684013bf0e3f562e40c0e8 series --d 3 --order 5000 --json
2 aca6095fe61dc205451a0f14a52ec0047583d848db3cc8a24119fcf9653512bf series --d 3 --order 0
2 130888db42dd23dc3d77971d9fb5013c7283550530a6c8765586ec286e48e158 series --d 3 --order 0 --json
2 d386597e8e4a24fe1e437d7b753e45d55d8e86798d4d733d07459259d7a71d4c series --d 2
2 35ab19afad3636e4ef2209e0fe537b5c3d3f45f810a679a26b2c8d942f207a89 series --d 2 --json
0 a23a604a702d9fca3b61d3039e7ad38dc50e587a555be7ff36a93dbb5a8e1b5b oracle --m 2 --k 3
0 b53d8fcec0ec20343d71d583a661221e08a103ba0ef29c2a314f357387411922 oracle --m 2 --k 3 --json
0 ce9e795286fae0349be08a9b80a8f5dd03d51d063aa174481715d6eb48ca8f35 oracle --m 2 --k 3 --coeffs regular
0 80adaf8f93f6c149eb8ab8a1f3ee5f324fd3aeb7f9712e926b809ee13633cabd oracle --m 2 --k 3 --coeffs regular --json
0 51f39719d4dfcbc52f4d896efc66ccdbfd0e1886792b9db156bf7a366d9b7d35 oracle --m 2 --k 3 --hochschild
0 6555f8bb0ebe0795682cdd53dd6d70f5c57450b34871726d629eef03e00c568f oracle --m 2 --k 3 --hochschild --json
5 783b3223154ae537986937294643ba5a1f5b91d86c4cc52acbe2042d50979ac6 oracle --m 4 --k 9
5 1c4d21bc6c8db11468b6dab2f813488be97c4de9c2f7d9c03349d7701f315bb4 oracle --m 4 --k 9 --json
0 bcc9d700cb5d5890dcf5d974beca06ed3a59a65806688201a76a9c920de324a0 oracle --m 2 --k 5 --budget 64
0 3b9e44230079dd3e093008f263b1976c4bb43816faf1d80ef7eda33c2b00e22a oracle --m 2 --k 5 --budget 64 --json
5 edb29c018e9170bb9a9b4bd09a11af327a39819bfa4da6f8fb11e2f4a77a799b oracle --m 2 --k 11
5 150cb52ac1ac0910046360288f7f03546c24b4e7684f14fac2c3a7523785433e oracle --m 2 --k 11 --json
2 e5223e4e2e847d608c2fc21f3e5ee82e7b6ba0947b577be2c5ef1bb4c79284c1 oracle --m 0 --k 2
2 89e92c1636adb1eea112a59aab3052b47dd16ddce756f9ef384598b2f867d8dd oracle --m 0 --k 2 --json
0 ae3145de4b8774e16a6b2dbb8fe5bf866856359c1b25bab57269a5eae5086a04 selftest
2 e4cef23bde87faaf6244c3b124b955c4ee6da84a78010327337d3aa782852c4c analyze four-leaf-b2.json
2 bd148a7dc96ad17898fe98fb800570fb045799f8f6e48c2e86181599039515f4 analyze four-leaf-b2.json --json
5 a48ccdebcb0ff6b14136970d80f9f4e3d9b9624ede09b81d596629bab032ea0b oracle --m 2 --k 11 --hochschild
5 ddd2f2412d13d80b0c6b64dc8bbd912db1ecfe2deebcc02b374931e986f89c50 oracle --m 2 --k 11 --hochschild --json
0 a408a00e331736f51b33b8ec196d1170460ea9b2d9ea9077d973f3b2c99ba20a oracle --m 2 --k 3 --coeffs regular --hochschild
0 a181ed71746cbf2764860afde74332734308600286dead33c55dacbc88471fa4 oracle --m 2 --k 3 --coeffs regular --hochschild --json
0 3b8ad11325c6547e34c02a2e606a804d614591be846babfbb2bbdcc41c819e13 series --ord 5 --d=4
0 6d0e919f8e6dd35154d6368543334c392c4f8b3bc208c204adf416f1130bdddf series --ord 5 --d=4 --json
"""
ROWS = [Row(args, int(code), sha=sha) for code, sha, args in (line.split(" ", 2) for line in PINNED.strip().split("\n"))]
ROWS += [
    *pins("analyze star.json", 0, "3633a1a4e39b8b27eae789ab5f07d02b93d1ec913b2bc1464bfb2e1a5b4121c2",
          "18fccbbb3b544f0a0d751492a710c55ebef38197c6840b03bc976494a24dc6f3", status="ok", multiplicity="6",
          tdims={"3": "30", "4": "111", "5": "462", "6": "1944"}, t2={"value": "15", "exact": True},
          codim_ac={"value": "3", "exact": True},
          gmd={"sum_d_minus_1": "7", "sum_b_minus_1": "8", "obstructed": False}),
    *pins("series --d 4 --order 3", 0, "61576921543aa62615bc2ceea662302236d08066abace5d74ebb2cccc71c8adf",
          "1cff79ea5a6c08a30d234e61f68d2ed0502f30179c6d7700f652feaa2305c3b4", d="4", shuffle_dims=["3", "6", "8"],
          p_coefficients=["4", "3", "3"]),
    *pins("oracle --m 2 --k 4", 0, "4ed461b66b60ca74e6cadca1f9e9ede2a18639b2156102bfdda5ddfbafa6cbfd",
          "2c780a364f5d636c7ecd13edbf4371bf3b600da7f879e77f3172824e1d4ca949", brute_force="3", formula="3",
          verdict="MATCH"),
    *pins("oracle --m 1 --k 10", 0, "7c0d123de3aab5ddf5950f485a5d28873d01865672e9ac7d6c0aa229433fb50f",
          "c100327098ae36851629436099f352bd272a534501ced2edb9abbe66ce31ec3c", verdict="MATCH"),
    *pins("oracle --m 2 --k 2 --coeffs regular", 0, "31516452cc2586883a57d046787448c90ff6734252814b1a35a9caa31ec1b4da",
          "cc5216f4badc636a188aed43882f0e79b242345885366793c6c68a0cd3ae61a2", brute_force="4"),
    *pins("oracle --m 2 --k 2 --coeffs regular --hochschild", 0,
          "e5b11027db0f86797cc65303c37e9d76247a4ab4c95c729f7ea28453bb71d3a3",
          "3a0dc07cda64f18919e03ebceb6fa16ead57952b0d4e46b413de10b707301ba1", brute_force="6"),
    # degree 1200 once overflowed the stack of a recursive word enumeration: an answer, not a traceback
    *pins("oracle --m 1 --k 1200 --budget %d --coeffs regular" % 2 ** 1300, 0,
          "4e6985fae5d46112f286c9ef66e6db2dbb2049904dbf9135a4dbeb4c1c5391b2",
          "7c26883c1a506d8a1ce08c85304e26bbc73037fb172a933604803751dc2b0cbc", 5, brute_force="0"),
    # a vertex id prints escaped, on its own line; syntax errors past JSON's own limits
    *pins("analyze inject.json", 0, "70f87f27b2e91f34540d82155f2c9825a695dbc9576482f55e42114493bdb306",
          "7e6dbe2197373d0ee2d5adab2ce822df7edc4eac27cf0b1f26549a9011f807d8", fundamental_cycle={INJECTED: "1"}),
    *pins("analyze nested.json", 2, "cc500a098cca7b331150f2c3f224779dcecc7c08177c58cfcaaab2bcba8ce717",
          "e50c8093cae671c25bd564cdaf109095be45c4d2a911d1a51f8875435c7d9b8c", error_code="syntax"),
    *pins("analyze big-int.json", 2, "3d86038380e681caa91be42627b84fd9f68d5c26a00be85b7a27a30ce6c91c2f",
          "c4597a6409bc993f975ada112fc8ba2ee839753ac0bb94af9204f71a3420b62b", error_code="syntax"),
    *[row for name in ("bad", "bad-crlf", "bad-cr") for row in pins(
        "analyze %s.json" % name, 2, "796a463c7f43fc28246c0dd288e3bc7ef6d42bd0c134787162edb80cb787c386",
        "17d27c0c169292eabbc58d1439fe47322f01292082a61bb9f21fe382a260fe01")],
    # --budget -5 goes through argparse, --budget 0 does not
    *[row for budget in (0, -5) for row in pins(
        "oracle --m 2 --k 2 --budget %d" % budget, 2,
        "9a79d155872bc007b1b064f3ed72c61e80529559149bbdc4458b5c4ffa46c6aa",
        "a1882772a38fe83b7af011bbb153e24830411bf7508c960a2402eb6c99e17d20", error="--budget must be at least 1")],
    # refusals within 1 s, before any work: n^k is neither computed nor written out when it has thousands of digits,
    # and a degree or an order past the float range is compared, not converted to a float
    *pins("oracle --m 2 --k 10", 5, "edb29c018e9170bb9a9b4bd09a11af327a39819bfa4da6f8fb11e2f4a77a799b",
          "150cb52ac1ac0910046360288f7f03546c24b4e7684f14fac2c3a7523785433e", 1,
          error="word space 2^11 = 2048 exceeds budget 1500"),
    *pins("oracle --m 39 --k 1", 5, "b75341619fc8bbc2439fbc6bcf0fb161e8a3a6ce8359dbc84f6dc68d3395c1b6",
          "1734f57cfc87eca7baa7316ed32fb1b86552b49ebd43f2d3c3814e931e0eb9f0", 1,
          error="word space 39^2 = 1521 exceeds budget 1500"),
    *pins("oracle --m 100 --k 1", 5, "270af77cd1f8c86461d81e62c07d6f7530b35b53513e92d6587114cdf51162b6",
          "2fc2831b5d2489ee097cee84e2475481f1bcafa6b8bc79d2d47a11479a22c209", 1,
          error="word space 100^2 = 10000 exceeds budget 1500"),
    *pins("oracle --m 2 --k 10 --hochschild", 5, "1ea12811411e1cfd8c765d76219569ec852414603ad4890b01c0b4fc4489b468",
          "b670dcb84c2b92e59d74b395fb22b4f7e5cfc337a67dad958b9daab45e33d889", 1,
          error="word space for the full degree-10 differential exceeds budget 1500"),
    *pins("oracle --m 2 --k 20000", 5, "ee09911181a3b39796caeb48092874d230d86eb6581a4ff39c8b81a4a989940c",
          "a5b47c2cb89ec00a99900695c2c15bef915a3678c565f4f1695d4e8878bfa5e3", 1,
          error="word space 2^20000 exceeds budget 1500"),
    *pins("oracle --m 3 --k 1000000", 5, "20a26dc6d93354163e37750c210a133ad31ed55dd173e7b975265a6e644574fa",
          "f8701b407e4f49f360542958fbd057f9f8ae9ee341ec658f2f67faa105fbc109", 1,
          error="word space 3^1000000 exceeds budget 1500"),
    *pins("oracle --m 2 --k 1000000 --hochschild", 5,
          "f706294827141dfb6053862e17523686377f2b7c68851d3107fc4586a297b6cd",
          "aee959bd048099c1f19ed09c92c179c36ddaa2b80ea7b06c55ea8360f926b953", 1,
          error="word space for the full degree-1000000 differential exceeds budget 1500"),
    *pins("oracle --m 5 --k %d" % 10 ** 400, 5, "613adb94f07d7a745d174f3b47e165efa1a3103a645fe69a2e03310c9a8039db",
          "36e0727b2eb2d2cbbe70388a6547940bfc44d0367f42f140895d52bdb8979252", 1,
          error="word space 5^%d exceeds budget 1500" % 10 ** 400),
    *pins("oracle --m %d --k %d --hochschild" % (10 ** 300, 10 ** 400), 5,
          "58d0257cd69d82b1bb3477306e7fd947b79f464ef329b4393671bac9dacc94d6",
          "dc665515a20bfee906bee0b4b22662708e6d1499d322a0463fb7788100f88a74", 1,
          error="word space for the full degree-%d differential exceeds budget 1500" % 10 ** 400),
    # one letter: its word space 1^k = 1 always fits, but the ~2^(k-1) shuffles per word must too
    *pins("oracle --m 1 --k 30", 5, "1f7e72cd1982a973d49474bd680f35086ea2c9479dce502681c472fceaafc970",
          "fc83f2a8edb585288394feba1d73e8f8243448f69f474311139c76718562dc80", 1,
          error="shuffle count 2^29 per word exceeds budget 1500"),
    *pins("oracle --m 1 --k 1000", 5, "6646cc8ce1899cb9e651d142d03875f8eec19d1389896487ff00556f64176f23",
          "d7f437d43f77725a86d46d04d44e6e9d3f6f2be5bf5773d2ad38f158116983a4", 1,
          error="shuffle count 2^999 per word exceeds budget 1500"),
    *pins("oracle --m 1 --k 20000", 5, "fd93d8830c3cc66c0958de425f3c53edccc4225c2d397ba92db350aa366c9c8f",
          "f5cbce9bd5de66dc4483be75fc8f06f24653ce2296795c7fb99dd3b7cb14e602", 1,
          error="shuffle count 2^19999 per word exceeds budget 1500"),
    # values too long to print (the first two print the same text)
    *pins("series --d 12 --order 5000", 5, "678f2412d2e2552b16184b6ca405b9def357a290eb0d6ee2ec9bf7c3825b0fd6",
          "f04a59b9e5bbfde9c55d62227b68c6dc4e6d3fda48b0fa83cab30f59f3c86b0f", 1,
          error="coefficients up to t^5000 of the degree-12 series exceed 4000 digits"),
    *pins("analyze cone12.json --max-i 5000", 5, "678f2412d2e2552b16184b6ca405b9def357a290eb0d6ee2ec9bf7c3825b0fd6",
          "f65a2120f5f9c3efc2296a85ecee5ebb73c8d2adf0fab8bc2ee3b00dbe5bfc13", 1,
          error="coefficients up to t^5000 of the degree-12 series exceed 4000 digits"),
    *pins("series --d 1000000 --order 1000", 5, "cf8fe179527e2e2840d9f80284d7880b26779b8151f189b7c90b225f47ba1992",
          "f97094427c6c5dfc9a20229bc867532794e504b3f452843ee4800372e8f27fbd", 1,
          error="coefficients up to t^1000 of the degree-1000000 series exceed 4000 digits"),
    *pins("series --d 3 --order 1000000", 5, "5154232ae5918ebcf810f4de681bd970c26c71fb89a96749e8072033ef71189d",
          "e879d48cc1bbfc7aa8b5ef714e925a733fc6d55a99226139050ba6e52fffe06e", 1,
          error="coefficients up to t^1000000 of the degree-3 series exceed 4000 digits"),
    *pins("series --d 3 --order %d" % 10 ** 400, 5, "745fc64a9bd19424bc01ad4d0b8a9c7e63412118d1c6b90add7f65011c8223fb",
          "079652fe44c6983000a6699a31278f2a23d2a8d300df7751549e043be3a58ff9", 1,
          error="coefficients up to t^%d of the degree-3 series exceed 4000 digits" % 10 ** 400),
    *pins("analyze cone12.json --max-i %d" % 10 ** 400, 5,
          "46319e60b9b89a00d35bb1a901e503e58a044ddf077085c7b1c820d7cd1ce283",
          "45e8befd8f2034842b4e86c06cd897595252dff131a5ce298d7683b2b5e14623", 1,
          error="coefficients up to t^%d of the degree-12 series exceed 4000 digits" % 10 ** 400),
    # past the loop budget (heavy300, under it, is decided: not rational) and past the tree budget
    *pins("analyze heavy1500.json", 5, "0c12cad4eea7280e6921ea751c7236835e9bded8a51d60e1ecff3d7b41561f70",
          "2bcab2b727c40baf413cb6d1825f7530cf2f48f635d9d0f55f1cda94e812074a", 4,
          error="fundamental cycle: more than 1000000 units of loop work"),
    *[row for arm in (125, 340, 600) for row in past_the_tree_budget(arm)],
    oracle("--m 2 --k 9", "56", verdict="MATCH"), oracle("--m 2 --k 11 --budget 5000", "186", 5, verdict="MATCH"),
    oracle("--m 3 --k 5 --coeffs regular", "126"), oracle("--m 2 --k 11 --hochschild --budget 5000", "2048"),
    oracle("--m 2 --k 8 --coeffs regular --hochschild", "384"),
    oracle("--m 4 --k 4 --coeffs regular --hochschild", "960"),
    # regular Hochschild, ranked a content shape at a time, within and past the default cap; one letter too
    oracle("--m 2 --k 11 --coeffs regular --hochschild --budget 5000", "3072", 5),
    oracle("--m 6 --k 3 --coeffs regular --hochschild", "1260", 5),
    oracle("--m 4 --k 6 --coeffs regular --hochschild --budget 20000", "15360", 5),
    oracle("--m 3 --k 7 --coeffs regular --hochschild --budget 7000", "5832", 5),
    oracle("--m 1 --k %d --coeffs regular --hochschild" % 10 ** 18, "1", 5),
    # the deepest regular Harrison columns, fatpoint_tdim(2, 9) and (2, 10); block ranks past the cap, (6, 3), (3, 6)
    oracle("--m 2 --k 10 --coeffs regular --budget 5000", "154"),
    oracle("--m 2 --k 11 --coeffs regular --budget 5000", "267"),
    oracle("--m 6 --k 4 --coeffs regular --budget 50000", "1820"),
    oracle("--m 3 --k 7 --coeffs regular --budget 7000", "812"),
    oracle("--m 2 --k 12 --budget 20000", "335", 5, verdict="MATCH"),  # the largest two-letter shape kernels
    Row("selftest --json", 0, {"failed": 0, "passed": 11}, 60),
    # help and usage errors go through argparse, as the pinned --opt=value abbreviation does; the exact spelling does not
    Row("--help"), Row("analyze --help"), Row("oracle --help"), Row("series --order 5 --d 4 --json"),
    Row("oracle --m x --k 2", 2),
    # a vertex id no UTF-8 stdout can print is invalid input in either mode
    Row("analyze surrogate.json", 2), Row("analyze surrogate.json --json", 2, {"error_code": "syntax"}),
    Row("series --d 3 --order 13288 --json", 5),
    # large graphs analyze in linear time; the complete graphs and the hub pair to -1 at once
    Row("analyze star161.json --json"), Row("analyze chain.json --json"), Row("analyze huge-b-chain.json --json"),
    Row("analyze k120.json --json", 3), Row("analyze hub.json --json", 3),
    # Y towers: y124, of weight 125^2 126 / 2 = 984375, is the deepest under the tree budget (a 4.6 MB report)
    Row("analyze y124.json --json", 0, {}, 5), Row("analyze y124.json", 0, {}, 5),
]
CHILD_ROWS = [  # over tier-1's time share, or bounded in peak RSS, which only a child process can show
    # a file just under the byte cap, whose tree once ended in a RecursionError or ran out of memory
    *past_the_tree_budget(14500),
    oracle("--m 2 --k 12 --coeffs regular --budget 20000", "484"),  # d_12 against degree-13 blocks, each relabeled once
    Row(SERIES_CAP + " --json", 0, {}, 10, 120), Row(SERIES_CAP, 0, {}, 10, 120),
    Row(ANALYZE_CAP, 0, {}, 10, 120, "46c6c044009cf5181548c1ac69f24bf935cce800bc0dafa1183817f560841bca"),
]
CHECKS = [  # (name, the rows whose outputs it reads, JSON parsed, and its test)
    ("an abbreviation and --opt=value print the exact spelling's JSON",
     ("series --ord 5 --d=4 --json", "series --order 5 --d 4 --json"), lambda a, b: a == b),
    ("the digit-cap human rows are the JSON rows", (SERIES_CAP + " --json", SERIES_CAP),
     lambda doc, text: [line.split(": ", 1)[1].split(" ") for line in text.split("\n")[1:4]] + text.split("\n")[4:]
     == [doc["shuffle_dims"], doc["q_coefficients"], doc["p_coefficients"], ""]),
    ("analyze's T^i up to the digit cap are the series' P row", (ANALYZE_CAP, SERIES_CAP + " --json"),
     lambda report, doc: report["tdims"] == {str(i): doc["p_coefficients"][i - 1] for i in range(3, 13288)}),
    ("selftest --json passes the criteria that selftest passes, in its order", ("selftest", "selftest --json"),
     lambda text, doc: ["PASS " + c["name"] for c in doc["criteria"] if c["passed"]]
     == [line.split(" (")[0] for line in text.split("\n") if line.startswith("PASS ")]),
    ("oracle's --budget help names the default that its refusals print", ("oracle --help", "oracle --m 4 --k 9 --json"),
     lambda text, doc: "(default %s)" % doc["error"].rsplit(" ", 1)[1] in " ".join(text.split())),
]
# Spawns argv[2:], kills it after argv[1] seconds, and ends stdout with a NUL and the child's own peak RSS
# in KB. Linux carries a process's RSS high-water mark over exec, so a child of the runner reads the runner's.
LAUNCHER = ("import os, signal, sys; pid = os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ)\n"
            "signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))\n"
            "signal.setitimer(signal.ITIMER_REAL, float(sys.argv[1])); _, status, usage = os.wait4(pid, 0)\n"
            "os.write(1, b'\\0%d' % usage.ru_maxrss); sys.exit(os.waitstatus_to_exitcode(status))")


def in_process(row):
    """Exit code, stdout and peak RSS (0: not measured) of cli.main on row's argv."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            return cli.main(row.args.split()), out.getvalue(), 0
        except SystemExit as e:  # argparse's help and usage errors
            return e.code, out.getvalue(), 0


def run_child(row, command):
    """Exit code, stdout and peak RSS in MB of command on row's argv, from LAUNCHER."""
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, str(row.limit), *command, *row.args.split()],
                          stdout=subprocess.PIPE, env=dict(os.environ, PYTHONIOENCODING="utf-8"))
    out, _, peak = proc.stdout.rpartition(b"\0")
    return proc.returncode, out.decode("utf-8", "replace"), int(peak or 0) / 1024


def problems(row, code, out, seconds, rss):
    """What row's run got wrong, and its output, parsed if JSON."""
    found = [] if code == row.code else ["exit %s, not %d" % (code, row.code)]
    found += ["%.2f s, over the %g s limit" % (seconds, row.limit)] if seconds > row.limit else []
    found += ["peak RSS %.1f MB, over %d MB" % (rss, row.rss)] if row.rss and not 0 < rss <= row.rss else []
    sha = hashlib.sha256(out.encode("utf-8")).hexdigest()
    found += ["stdout's SHA-256 is %s, not %s" % (sha, row.sha)] if row.sha not in (None, sha) else []
    if "--json" not in row.args.split():
        return found, out
    with contextlib.suppress(ValueError):
        doc = json.loads(out)
        found += [] if out == json.dumps(doc, indent=2, sort_keys=True) + "\n" else ["stdout is not canonical JSON"]
        return found + ["%s is %r, not %r" % (k, doc.get(k), v) for k, v in row.fields.items() if doc.get(k) != v], doc
    return found + ["stdout is not JSON"], None


def write_graphs(rows):
    """Write the GRAPHS files that rows name into the working directory."""
    for name in GRAPHS.keys() & {name for row in rows for name in row.args.split()}:
        text = GRAPHS[name]()
        with open(name, "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode("utf-8"))


def run_table(rows, command=None):
    """Run rows (in process, or by command) and then CHECKS, if no row failed; report, and return what failed."""
    write_graphs(rows)
    failed, outputs = [], {}
    for row in rows:
        start = time.perf_counter()
        code, out, rss = run_child(row, command) if command else in_process(row)
        seconds = time.perf_counter() - start
        found, outputs[row.args] = problems(row, code, out, seconds, rss)
        print("FAIL" if found else "ok", code, "%.2f s" % seconds, "%.0f MB" % rss if rss else "-", row.args)
        failed += ["ratsurf %s: %s" % (row.args, problem) for problem in found]
    checks = [] if failed else [check for check in CHECKS if set(check[1]) <= outputs.keys()]
    return failed + ["check: " + name for name, args, holds in checks if not holds(*map(outputs.get, args))]


def test_rows_in_process(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_table(ROWS) == []


def test_the_runner_names_each_failing_row_and_reads_a_childs_own_peak_rss():
    python = (sys.executable,)  # in place of the script: a row's args are python's
    for row, command, problem in ((oracle("--m 2 --k 9", "57"), None, "brute_force is '56', not '57'"),
                                  (Row("oracle --m 2 --k 10 --json"), None, "exit 5, not 0"),
                                  (Row("series --d 3", 0, sha="0" * 64), None, "SHA-256 is 4efd77"),
                                  (Row("-c __import__('time').sleep(5)", 0, {}, 0.2), python, "over the 0.2 s"),
                                  (Row("-c pass", 0, {}, 10, 1), python, "MB, over 1 MB")):
        assert any(line.startswith("ratsurf %s: " % row.args) and problem in line for line in run_table([row], command))
    held = b"x" * (60 << 20)  # a child spawned straight from here would read at least this much
    code, _, rss = run_child(Row("-c pass"), python)
    assert (code, len(held)) == (0, 60 << 20) and 0 < rss < 40, rss


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        failed = run_table(ROWS + CHILD_ROWS, ("ratsurf",))
    print("%d rows, %d checks, %d failures" % (len(ROWS + CHILD_ROWS), len(CHECKS), len(failed)), *failed, sep="\n")
    sys.exit(1 if failed else 0)
