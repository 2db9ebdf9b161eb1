import json

import pytest
from hypothesis import given, strategies as st

from biblionet.normalize import (
    NormalizationRules,
    YearMonth,
    _address_segments,
    canonicalize_country,
    extract_countries,
    extract_countries_and_institutions,
    extract_institutions,
    normalize_date,
    split_authors,
    split_list_field,
)
from biblionet.wos_ingest import BiblioRecord, Corpus, parse_file
from oracles import char_walk_address_segments, random_records


def address_corpus(*addresses) -> Corpus:
    return Corpus.from_records([BiblioRecord(publication_type="J", title="T", addresses=address)
                                for address in addresses])


class TestYearMonth:
    def test_ordering_is_lexicographic(self):
        assert YearMonth(2020, 3) < YearMonth(2020, 9) < YearMonth(2021, 1)

    def test_str_format(self):
        assert str(YearMonth(2020, 9)) == "2020-09"

    @pytest.mark.parametrize("year,month", [(1899, 5), (2020, 0), (2020, 13)])
    def test_invalid_values_rejected(self, year, month):
        with pytest.raises(ValueError):
            YearMonth(year, month)


class TestNormalizeDate:
    @pytest.mark.parametrize("raw", ["SEP 10", "Sep", "SEPTEMBER 10", "September", "SEPT", "SEP."])
    def test_september_variants(self, raw):
        assert normalize_date(raw, 2020) == YearMonth(2020, 9)

    def test_range_resolves_to_first_month(self):
        assert normalize_date("SEP-DEC", 2020) == YearMonth(2020, 9)
        assert normalize_date("JAN-FEB", 2020) == YearMonth(2020, 1)

    @pytest.mark.parametrize("raw", ["FAL", "WIN", "SUM", "SPR", "FALL"])
    def test_seasons_dropped(self, raw):
        assert normalize_date(raw, 2020) is None

    @pytest.mark.parametrize("raw", ["", None, "10", "???"])
    def test_unparseable_dropped(self, raw):
        assert normalize_date(raw, 2020) is None

    def test_bad_year_dropped(self):
        assert normalize_date("SEP", 0) is None
        assert normalize_date("SEP", 1800) is None

    def test_every_month_resolves_in_any_casing(self):
        months = ["JAN", "FEB", "MAR", "APR", "MAY", "JUN", "JUL", "AUG", "SEP", "OCT", "NOV", "DEC"]
        for number, token in enumerate(months, start=1):
            for variant in (token, token.lower(), token.capitalize(), token + ".", token + " 15"):
                resolved = normalize_date(variant, 2020)
                assert resolved == YearMonth(2020, number), variant

    @given(st.text(max_size=20), st.integers(min_value=1900, max_value=2100))
    def test_month_always_in_range(self, raw, year):
        resolved = normalize_date(raw, year)
        assert resolved is None or 1 <= resolved.month <= 12


class TestCanonicalizeCountry:
    @pytest.mark.parametrize("raw,expected", [
        ("NJ 08540 USA", "USA"),
        ("MA 02115 USA", "USA"),
        ("Wales", "United Kingdom"),
        ("Scotland", "United Kingdom"),
        ("England", "United Kingdom"),
        ("North Ireland", "United Kingdom"),
        ("Peoples R China", "China"),
        ("P. R. China", "China"),
        ("Viet Nam", "Vietnam"),
        ("Vietnam", "Vietnam"),
        ("Hungary", "Hungary"),
        ("  france ", "France"),
    ])
    def test_rules(self, raw, expected):
        assert canonicalize_country(raw) == expected

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            canonicalize_country("   ")

    @given(st.text(min_size=1, max_size=30).filter(lambda s: s.strip()))
    def test_idempotent(self, raw):
        once = canonicalize_country(raw)
        assert canonicalize_country(once) == once


ADDRESS = (
    "[Smith, J.] Harvard Med Sch, Dept Med, Boston, MA 02115 USA; "
    "[Wu, Q.; Li, H.] Wuhan Univ, Dept Virol, Wuhan, Peoples R China; "
    "[Li, H.] Wuhan Univ, Dept Immunol, Wuhan, Peoples R China"
)


class TestExtractInstitutions:
    def test_bracketed_segment(self):
        got = extract_institutions("[Smith, J.] Harvard Med Sch, Dept Med, Boston, MA 02115 USA")
        assert got == ["Harvard Med Sch"]

    def test_every_occurrence_and_the_unique_view(self):
        assert extract_institutions(ADDRESS) == ["Harvard Med Sch", "Wuhan Univ", "Wuhan Univ"]
        corpus = address_corpus(ADDRESS)
        assert corpus.institutions == [["Harvard Med Sch", "Wuhan Univ"]]

    def test_unbracketed_segment_uses_first_token(self):
        assert extract_institutions("Univ Oxford, Dept Zool, Oxford, England") == ["Univ Oxford"]

    def test_empty_address(self):
        assert extract_institutions("") == []
        assert extract_institutions(None) == []

    def test_semicolon_inside_brackets_is_not_a_segment_break(self):
        got = extract_institutions("[A, B; C, D] Inst One, Dept, City, France")
        assert got == ["Inst One"]


class TestExtractCountries:
    def test_usa_postal_segment(self):
        assert extract_countries("[Smith, J.] Harvard Med Sch, Dept Med, Boston, MA 02115 USA") == ["USA"]

    def test_uk_merge_unique(self):
        address = "[A] Univ Edinburgh, Edinburgh, Scotland; [B] Univ Oxford, Oxford, England"
        assert extract_countries(address) == ["United Kingdom", "United Kingdom"]
        assert address_corpus(address).countries == [["United Kingdom"]]

    def test_china_canonical(self):
        assert extract_countries("[W] Wuhan Univ, Wuhan, Peoples R China") == ["China"]

    def test_every_occurrence_and_the_unique_view_on_mixed_address(self):
        assert extract_countries(ADDRESS) == ["USA", "China", "China"]
        corpus = address_corpus(ADDRESS)
        assert corpus.countries == [["USA", "China"]]

    def test_empty(self):
        assert extract_countries("") == []

    def test_unique_is_dedup_of_multiset(self):
        addresses = [ADDRESS, "", "[A] X, Y, Italy; [B] Z, W, Italy; [C] Q, R, France"]
        corpus = address_corpus(*addresses)
        for address, uniq in zip(addresses, corpus.countries):
            multi = extract_countries(address)
            assert uniq == list(dict.fromkeys(multi))
            assert len(uniq) <= len(multi)
        for address, uniq in zip(addresses, corpus.institutions):
            assert uniq == list(dict.fromkeys(extract_institutions(address)))


class TestAddressSegments:
    @pytest.mark.parametrize("address", [
        ADDRESS, "", ";", "a; b.; ;c", "[A; B] X, Y; Z", "]; [x]; a",
        "[[A; B]; C] D; E", "[A] X; [B; C", "x]]; [y; z]]; w",
    ])
    def test_examples_match_char_walk(self, address):
        assert _address_segments(address) == char_walk_address_segments(address)

    def test_fixtures_match_char_walk(self, fixture_paths, tab_fixture_path):
        addresses = [record.addresses for path in [*fixture_paths, tab_fixture_path]
                     for record in parse_file(path).records]
        assert any("[" in address for address in addresses)
        for address in addresses:
            assert _address_segments(address) == char_walk_address_segments(address)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpora_match_char_walk(self, seed):
        for record in random_records(seed, n_records=30):
            assert _address_segments(record.addresses) == char_walk_address_segments(record.addresses)

    @given(st.text(alphabet="[];,. aZ", max_size=40))
    def test_bracket_strings_match_char_walk(self, address):
        assert _address_segments(address) == char_walk_address_segments(address)


class TestCountriesAndInstitutions:
    """One segmentation gives what the two extractors give apart."""

    @staticmethod
    def assert_both(address, rules=None):
        assert (extract_countries_and_institutions(address, rules)
                == (extract_countries(address, rules), extract_institutions(address)))

    @pytest.mark.parametrize("address", [ADDRESS, "", None, ";", "[A; B] X, Y; Z", "Univ Oxford, Oxford, England"])
    def test_examples(self, address):
        self.assert_both(address)

    def test_fixtures_and_random_records(self, fixture_paths, tab_fixture_path):
        records = [record for path in [*fixture_paths, tab_fixture_path] for record in parse_file(path).records]
        records += [record for seed in range(6) for record in random_records(seed, n_records=30)]
        rules = NormalizationRules.default()
        custom = NormalizationRules(rules.months, rules.seasons, {"ance": "Gaul"}, {"italy": "Italia"})
        for record in records:
            self.assert_both(record.addresses)
            self.assert_both(record.addresses, custom)

    @given(st.text(alphabet="[];,. aZ", max_size=40))
    def test_bracket_strings(self, address):
        self.assert_both(address)


class TestSplitAuthors:
    def test_two_names(self):
        assert split_authors("Lippi, Giuseppe; Henry, Brandon Michael") == [
            "Lippi, Giuseppe", "Henry, Brandon Michael",
        ]

    @pytest.mark.parametrize("raw", ["[anonymous]", "[Anonymous]", "[ANONYMOUS]"])
    def test_anonymous_removed(self, raw):
        assert split_authors(raw) == []

    def test_within_record_dedup(self):
        assert split_authors("A, B; A, B") == ["A, B"]

    def test_mixed(self):
        assert split_authors("X, Y; [anonymous]; X, Y; Z, W") == ["X, Y", "Z, W"]

    def test_empty(self):
        assert split_authors("") == []
        assert split_authors(None) == []


class TestSplitListField:
    def test_plain(self):
        assert split_list_field("Infectious Diseases; Immunology") == ["Infectious Diseases", "Immunology"]

    def test_keywords_lowercased(self):
        assert split_list_field("COVID-19; SARS-CoV-2", lowercase=True) == ["covid-19", "sars-cov-2"]

    def test_empties_dropped(self):
        assert split_list_field("; ;") == []
        assert split_list_field(None) == []


class TestRulesConfig:
    def test_overrides_merge_over_defaults(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({
            "months": {"VEND": 10},
            "seasons": ["MON", "Autumn"],
            "country_exact": {"Holland": "Netherlands"},
        }), encoding="utf-8")
        rules = NormalizationRules.from_file(path)
        assert normalize_date("VEND 5", 2020, rules) == YearMonth(2020, 10)
        assert normalize_date("MON", 2020, rules) is None
        # a season longer than three letters matches whole or by its prefix
        for raw in ("AUTUMN-DEC", "autumn", "AUT 5", "FAL-DEC"):
            assert normalize_date(raw, 2020, rules) is None, raw
        assert normalize_date("SEP", 2020, rules) == YearMonth(2020, 9)
        assert canonicalize_country("holland", rules) == "Netherlands"
        assert canonicalize_country("Scotland", rules) == "United Kingdom"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"month": {"VEND": 10}}), encoding="utf-8")
        with pytest.raises(ValueError, match="month"):
            NormalizationRules.from_file(path)

    @pytest.mark.parametrize("rules", [
        {"country_contains": {"": "Atlantis"}},
        {"country_contains": {" ": "Atlantis"}},
        {"country_contains": {"USA": ""}},
        {"country_exact": {"france": ""}},
        {"country_exact": {"france": " \t"}},
        {"country_exact": {"": "France"}},
    ], ids=json.dumps)
    def test_empty_or_blank_country_name_rejected(self, tmp_path, rules):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules), encoding="utf-8")
        with pytest.raises(ValueError, match="empty or blank"):
            NormalizationRules.from_file(path)
