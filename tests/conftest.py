from pathlib import Path

import pytest

from biblionet.wos_ingest import Corpus, merge_corpora, parse_file

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def fixture_paths() -> list[Path]:
    return [DATA_DIR / "wos_tagged_part1.txt", DATA_DIR / "wos_tagged_part2.txt"]


@pytest.fixture(scope="session")
def fixture_records(fixture_paths):
    return merge_corpora([parse_file(path).records for path in fixture_paths])


@pytest.fixture(scope="session")
def fixture_corpus(fixture_records):
    return Corpus.from_records(fixture_records)


@pytest.fixture(scope="session")
def tab_fixture_path() -> Path:
    return DATA_DIR / "wos_tab.txt"
