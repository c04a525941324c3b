"""Golden CLI bytes: sha256 of the --format json stdout of each subcommand.

The JSON output is the behaviour contract of every subcommand, so these
digests were taken once and must not change under a refactor.  A change in
any of them means the printed result changed; it needs its own reason and a
new digest, never an edit that keeps the test green.  Run in process via
cli.main through the session's `run_cli` fixture (tests/conftest.py), so the
selfcheck row and tests/test_acceptance.py share one selfcheck run; the 29
invocations take about 25 s, selfcheck about 5 s of them.
"""
import hashlib

import pytest

# (argv without --format json, exit code, sha256 of stdout)
GOLDEN = [
    ('grading show --catalog g1', 0,
     '9fa51a4e38138dcdac97105816eae62b8e9a77e1ec746f6da22af0dca00861a6'),
    ('grading verify --catalog g1', 0,
     '57f2488f613280ee2240604dee4803da21956e1b91c4e2ac5bb1b9beddcccacf'),
    ('normalizer quotient --catalog g1', 0,
     '514646f28893ece381f2ee390d719b44f60ef13c644f69119634d52e2fde5907'),
    ('normalizer inner --catalog g1', 0,
     '4cc87021bb7b6533239c28b4d00368feed50117db5fe2422bb296def46f0f2c1'),
    ('contract equations --catalog g1', 0,
     '5bf9b1fa0602e3b5067ca9c34915087af4290c86b57765d63df9270dc2150e4a'),
    ('contract solve --catalog g1 --orbits --limit 0', 0,
     '94a9e77b9f5c582e4d0d62aa95cef9767ae3763586d888d6560ac936fc2cde72'),
    ('grading show --catalog g2', 0,
     '2af989a048145714e7297fb1c300ec8736de6fd3ee80e9d694706ee8ceb76b93'),
    ('grading verify --catalog g2', 0,
     'c91ce8157118402a6aff87fc7a0ef3951779fc13aaaf6f69d0dcecab8f7d77a4'),
    ('normalizer quotient --catalog g2', 0,
     '0c3e8b609da3f0e7a23967753791cc1799e17d9bac631ecce36534c882391e56'),
    ('normalizer inner --catalog g2', 0,
     '0c3e8b609da3f0e7a23967753791cc1799e17d9bac631ecce36534c882391e56'),
    ('contract equations --catalog g2', 0,
     'af1d5446492bb039fb7bd62d60888fb56aa09f22f04dee71475d10fe93bef519'),
    ('contract solve --catalog g2 --orbits --limit 0', 0,
     '45d90f16f3a816c0d9e6798996f00608c884314cc48aebff93373d8dc19e7d05'),
    ('grading show --catalog g3', 0,
     'f689e8776f7e70d05e6ca6dbf7cf14ee0a13b3d6a92a51ba616897ed17701eff'),
    ('grading verify --catalog g3', 0,
     '0ede4882b2b08d885b75d094ddba215e9075dafd89442879ef811a3f01ba85ed'),
    ('normalizer quotient --catalog g3', 0,
     'c8787afd351f09100d097803d26c0901813fd58b0ee7e28b5be8a4518917d499'),
    ('normalizer inner --catalog g3', 0,
     'c8787afd351f09100d097803d26c0901813fd58b0ee7e28b5be8a4518917d499'),
    ('contract equations --catalog g3', 0,
     '4686beddc84445c9cbf97d13f3adaa84b583941afdb19cd74e19ffd3f7b26258'),
    ('contract solve --catalog g3 --orbits --limit 0', 0,
     '77fb51aa3819e0ab7b895f5a82889e20151a70d0c40e46937abcb7a345b309c0'),
    ('grading show --catalog g4', 0,
     '490b29c7394fd33f1957cb1dfa17eb040887e411ae3c8937382a51a14585281e'),
    ('grading verify --catalog g4', 0,
     '4853c5b7caeb7a479766498c6a15ef5097fbde97506cba3f9555543727e590b5'),
    ('normalizer quotient --catalog g4', 0,
     'e08943b5a83da433fb6e8fc13b61b0a6c568b24858b0d907497228bc159fddc0'),
    ('normalizer inner --catalog g4', 0,
     '70846995665282ac3852b3a79980a6932270685deee4a641a905ff48dcdaf466'),
    ('contract equations --catalog g4', 0,
     '0b55c54159d6365390176314675a475681dfdca4a1c6cd4d35990152c232eae9'),
    ('contract solve --catalog g4 --orbits --limit 0', 0,
     '6296f5225a2b7132d507eedc06fca2abbf0e037d87d93be86271dd86816a0410'),
    ('normalizer check --catalog g4 --auto AdS', 0,
     '178ad92e607a390781b826b0fe93b3d21ed9fd14cea5fe911b91bb51e72c7a68'),
    ('normalizer linearize --catalog g4 --auto AdS', 0,
     '80b7c5490b0be83df76479f792655086804ae41525626084c1fd596199cce609'),
    ('grading label --catalog g1 --group 7', 0,
     '993b8fbccec0c53b29b83df73a2a66be86723a727d200cad4668f988944eb122'),
    ('grading coarsen --catalog g2 --merge 1,2', 1,
     '3a76e19404eba08657119177f4ee8f9af3e028795b235140fd8e7dbe8d08df46'),
    ('selfcheck', 0,
     'd1f16b653dae6da8435bfe75e2f4d90dc0a57199626aa3da381de7f89cb0335c'),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN,
                         ids=[row[0] for row in GOLDEN])
def test_json_stdout_matches_golden_digest(run_cli, argv, code, digest):
    rc, out = run_cli(f"{argv} --format json")
    assert rc == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
