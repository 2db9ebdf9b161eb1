"""Seeded Web of Science export generator with its own ground truth.

Writes a corpus as two tagged parts and one tab-delimited part, in the
style of `tests/oracles.synthetic_author_pool_corpus`: authors come from
preferential attachment over an appearance-weighted pool. The exports
also carry what the cleaning rules have to handle: `[anonymous]` and
repeated author entries, planted near-duplicate name variants
("Smith, John A" / "Smith, J. A."), C1 addresses ending in every country
rule, PD values with day, abbreviation, range and season forms, Zipfian
keywords, records without a title (skipped by the parser) and
cross-file duplicates by accession id and by title triple.

The ground truth is computed from the generator's own choices, not by
calling biblionet: corpus size after dedup, dated-view size, and the
co-authorship node count, edge count and weight sum.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

TAGS = ("PT", "AF", "TI", "JI", "LA", "DT", "DE", "AB",
        "C1", "NR", "TC", "PD", "PY", "SC", "PG", "UT")

_SYLLABLES = (
    "ka", "lo", "mi", "ren", "sa", "tor", "vi", "wen", "zhu", "li", "an", "bel",
    "chen", "dor", "fi", "gar", "har", "is", "jo", "kel", "lam", "mor", "nak", "ol",
    "pet", "qui", "ros", "sto", "tan", "ul", "var", "yam", "zel", "bra", "cor", "dal",
    "eng", "fos", "gil", "hut", "mül", "ñu", "ab", "ber", "cas", "dim", "ek", "fer",
    "gon", "hol", "ib", "jan", "kov", "lin", "mun", "nor", "ost", "pra", "ram", "sol",
    "tre", "ung", "wal", "xu", "yo", "zan", "ga", "be", "ru", "shi",
)
_GIVEN = (
    "John", "Maria", "Wei", "Giuseppe", "Anna", "Brandon", "Yuki", "Olga", "Pedro",
    "Fatima", "Lars", "Chiara", "Ahmed", "Sofia", "Kenji", "Elena", "Tomas", "Amara",
    "Li", "Hans", "Ingrid", "Rahul", "Beatriz", "Omar", "Nadia", "Pavel", "Grace",
    "Mateo", "Aiko", "Jonas", "Leila", "Marco", "Zanele", "Ivan", "Hana", "Diego",
    "Astrid", "Bogdan", "Carmen", "Dmitri", "Esther", "Felipe", "Gustav", "Helga", "Imran",
    "Julia", "Kwame", "Lucia", "Mikhail", "Noor", "Oskar", "Priya", "Quentin", "Rosa",
    "Stefan", "Teresa", "Umar", "Vera", "Wojciech", "Ximena", "Yusuf", "Zofia",
)
_STOPWORD_SAMPLE = ("the", "of", "and", "in", "a", "for", "with", "on", "to", "from")

# (trailing C1 token, weight): postal-code USA suffixes, the four UK
# nations, and the China and Vietnam spellings the cleaning rules map
_COUNTRY_TOKENS = (
    ("NJ 08540 USA", 6), ("CA 94305 USA", 5), ("OH 45229 USA", 3), ("Scotland", 2), ("Wales", 1),
    ("England", 4), ("North Ireland", 1), ("Peoples R China", 6), ("Viet Nam", 1), ("Italy", 3),
    ("Germany", 3), ("Japan", 2), ("Brazil", 2), ("India", 2), ("Spain", 2), ("France", 2),
    ("Hungary", 1), ("South Africa", 1),
)

_AREAS = (
    "Virology", "Immunology", "Psychiatry", "Mathematics", "Pediatrics", "Oncology",
    "Infectious Diseases", "Public, Environmental & Occupational Health",
    "General & Internal Medicine", "Medical Laboratory Technology", "Cardiovascular System",
    "Respiratory System", "Neurosciences & Neurology", "Pharmacology & Pharmacy",
    "Computer Science", "Engineering", "Physics", "Chemistry", "Biochemistry",
    "Genetics & Heredity", "Microbiology", "Environmental Sciences & Ecology",
    "Health Care Sciences & Services", "Nursing", "Surgery", "Radiology",
    "Obstetrics & Gynecology", "Endocrinology & Metabolism", "Dermatology",
    "Gastroenterology & Hepatology", "Hematology", "Ophthalmology", "Urology",
    "Veterinary Sciences", "Education", "Business & Economics", "Sociology",
    "Psychology", "Social Sciences", "Statistics & Probability",
)
_LANGUAGES = (("English", 90), ("Spanish", 4), ("German", 3), ("Chinese", 2), ("French", 1))
_DOC_TYPES = (("Article", 70), ("Review", 12), ("Letter", 6),
              ("Article; Early Access", 7), ("Editorial Material", 5))
_PUB_TYPES = (("J", 92), ("S", 4), ("B", 2), ("P", 2))

# (raw PD value, resolves to a month) -- day, abbreviation, range, season,
# empty and month-free forms
_DATES = (
    ("SEP 10", True), ("Sept.", True), ("SEP-DEC", True), ("MAR", True), ("JAN 15", True),
    ("DEC", True), ("Jul", True), ("MAY-JUN", True), ("FAL", False), ("WIN", False),
    ("SPR", False), ("SUM", False), ("", False), ("2021", False),
)


@dataclass(frozen=True)
class CorpusSpec:
    """Size and shape of one generated corpus."""

    records: int
    new_author_prob: float
    authors_per_paper: tuple[int, ...]
    institutions: int
    keyword_vocabulary: int
    keyword_zipf: float = 1.1
    variant_share: float = 0.03       # minted authors that also get an initials variant
    anonymous_share: float = 0.02     # records with an "[anonymous]" AF entry
    repeat_share: float = 0.02        # records listing one author twice
    untitled_share: float = 0.002     # records without TI, skipped by the parser
    accession_dup_share: float = 0.03
    triple_dup_share: float = 0.02
    missing_ut_share: float = 0.03


@dataclass
class GroundTruth:
    records_parsed: int = 0
    records_skipped: int = 0
    duplicates_removed: int = 0
    corpus_size: int = 0
    dated_view_size: int = 0
    coauthor_nodes: int = 0
    coauthor_edges: int = 0
    coauthor_weight_sum: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class _Record:
    fields: dict[str, str | list[str]]
    dated: bool
    authors: list[str]   # cleaned, as the parser will see them


class _Zipf:
    """Seeded sampler over ranks 0..n-1 with P(k) proportional to 1/(k+1)^s."""

    def __init__(self, n: int, s: float) -> None:
        self.cumulative = list(itertools.accumulate(1.0 / (k + 1) ** s for k in range(n)))

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect(self.cumulative, rng.random() * self.cumulative[-1])


def _weighted(rng: random.Random, table):
    return rng.choices([row[0] for row in table], weights=[row[-1] for row in table])[0]


def _word(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(low, high)))


def _distinct_words(rng: random.Random, count: int, low: int, high: int) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < count:
        words[_word(rng, low, high)] = None
    return list(words)


class _AuthorPool:
    """Preferential attachment: reuse an appearance-weighted author or mint one."""

    def __init__(self, rng: random.Random, spec: CorpusSpec) -> None:
        self.rng = rng
        self.spec = spec
        self.appearances: list[int] = []
        self.names: list[str] = []
        self.variants: dict[int, str] = {}
        self.taken: set[str] = set()

    def _mint(self) -> int:
        rng = self.rng
        while True:
            surname = _word(rng, 2, 3).capitalize()
            given = rng.choice(_GIVEN)
            initial = chr(ord("A") + rng.randrange(26))
            name = f"{surname}, {given} {initial}"
            if name not in self.taken:
                break
        self.taken.add(name)
        author = len(self.names)
        self.names.append(name)
        if rng.random() < self.spec.variant_share:
            variant = f"{surname}, {given[0]}. {initial}."
            if variant not in self.taken:
                self.taken.add(variant)
                self.variants[author] = variant
        return author

    def draw(self) -> str:
        rng = self.rng
        if self.appearances and rng.random() > self.spec.new_author_prob:
            author = rng.choice(self.appearances)
        else:
            author = self._mint()
        self.appearances.append(author)
        variant = self.variants.get(author)
        return variant if variant is not None and rng.random() < 0.5 else self.names[author]


def _build_records(spec: CorpusSpec, seed: int) -> list[_Record]:
    rng = random.Random(seed)
    pool = _AuthorPool(rng, spec)
    vocabulary = _distinct_words(rng, 2400, 1, 4)
    word_zipf = _Zipf(len(vocabulary), 1.05)
    keywords = [f"{a} {b}" for a, b in zip(_distinct_words(rng, spec.keyword_vocabulary, 2, 3),
                                         _distinct_words(rng, spec.keyword_vocabulary, 2, 4))]
    keyword_zipf = _Zipf(len(keywords), spec.keyword_zipf)
    institutions = []
    for i in range(spec.institutions):
        stem = _word(rng, 2, 3).capitalize()
        name = rng.choice((f"Univ {stem}", f"{stem} Inst Technol", f"{stem} Med Ctr", f"{stem} Univ Hosp"))
        # the most frequent institutions cover every country rule once
        country = _COUNTRY_TOKENS[i][0] if i < len(_COUNTRY_TOKENS) else _weighted(rng, _COUNTRY_TOKENS)
        institutions.append((f"{name} {i}", country, stem))
    institution_zipf = _Zipf(len(institutions), 0.9)
    area_zipf = _Zipf(len(_AREAS), 0.8)
    sources = [f"J. {_word(rng, 2, 3).capitalize()} {_word(rng, 2, 3).capitalize()}" for _ in range(150)]
    source_zipf = _Zipf(len(sources), 1.0)

    def text(count: int) -> list[str]:
        words = []
        for _ in range(count):
            if rng.random() < 0.25:
                words.append(rng.choice(_STOPWORD_SAMPLE))
            else:
                words.append(vocabulary[word_zipf.draw(rng)])
        return words

    records = []
    for serial in range(spec.records):
        k = rng.choice(spec.authors_per_paper)
        drawn = [pool.draw() for _ in range(k)]
        cleaned = list(dict.fromkeys(drawn))
        af = list(drawn)
        if af and rng.random() < spec.repeat_share:
            af.insert(rng.randrange(len(af) + 1), rng.choice(af))
        if rng.random() < spec.anonymous_share:
            af.insert(rng.randrange(len(af) + 1), "[anonymous]")

        segments = []
        for _ in range(rng.choice((1, 1, 2, 2, 3, 4))):
            inst, country, stem = institutions[institution_zipf.draw(rng)]
            members = "; ".join(rng.sample(cleaned, min(len(cleaned), rng.randint(1, 2)))) if cleaned else ""
            city = f"{stem}ville"
            body = f"{inst}, Dept {_word(rng, 2, 2).capitalize()}, {city}, {country}."
            segments.append(f"[{members}] {body}" if members and rng.random() < 0.85 else body)

        pd, dated = rng.choice(_DATES)
        title_words = text(rng.randint(5, 11))
        title_words[0] = title_words[0].capitalize()
        title = " ".join(title_words) + f" {serial:06d}"
        untitled = rng.random() < spec.untitled_share
        pages = rng.choice((None, None, rng.randint(1, 30)))
        fields = {
            "PT": _weighted(rng, _PUB_TYPES),
            "AF": af,
            "TI": "" if untitled else title,
            "JI": sources[source_zipf.draw(rng)],
            "LA": _weighted(rng, _LANGUAGES),
            "DT": _weighted(rng, _DOC_TYPES),
            "DE": sorted({keywords[keyword_zipf.draw(rng)] for _ in range(rng.randint(2, 6))}),
            "AB": " ".join(text(rng.randint(25, 70))) + "." if rng.random() < 0.9 else "",
            "C1": segments,
            "NR": str(rng.randint(5, 80)),
            "TC": str(min(int(rng.paretovariate(1.3)) - 1, 5000)),
            "PD": pd,
            "PY": str(rng.randint(2010, 2022)),
            "SC": list(dict.fromkeys(_AREAS[area_zipf.draw(rng)] for _ in range(rng.randint(1, 3)))),
            "PG": "" if pages is None else str(pages),
            "UT": "" if rng.random() < spec.missing_ut_share else f"WOS:{seed:04d}{serial:07d}",
        }
        records.append(_Record(fields=fields, dated=dated, authors=[] if untitled else cleaned))
    return records


def _tagged(records: list[_Record]) -> str:
    lines = ["FN Clarivate Analytics Web of Science", "VR 1.0"]
    for record in records:
        for tag in TAGS:
            value = record.fields[tag]
            if tag in ("AF", "C1"):
                if value:
                    lines.append(f"{tag} {value[0]}")
                    lines.extend(f"   {entry}" for entry in value[1:])
            elif tag in ("DE", "SC"):
                if value:
                    lines.append(f"{tag} {'; '.join(value)}")
            elif tag == "AB" and value:
                words = value.split()
                wrapped = [" ".join(words[i:i + 10]) for i in range(0, len(words), 10)]
                lines.append(f"AB {wrapped[0]}")
                lines.extend(f"   {chunk}" for chunk in wrapped[1:])
            elif value:
                lines.append(f"{tag} {value}")
        lines.append("ER")
        lines.append("")
    lines.append("EF")
    return "\n".join(lines) + "\n"


def _tab_delimited(records: list[_Record]) -> str:
    rows = ["\t".join(TAGS)]
    for record in records:
        cells = []
        for tag in TAGS:
            value = record.fields[tag]
            cells.append("; ".join(value) if isinstance(value, list) else value)
        rows.append("\t".join(cells))
    return "\ufeff" + "\n".join(rows) + "\n"


def _triple_copy(record: _Record) -> _Record:
    """Same title (other case), first author and source; no accession id."""
    fields = dict(record.fields)
    fields["TI"] = fields["TI"].upper()
    fields["UT"] = ""
    fields["TC"] = str(int(fields["TC"]) + 1)
    return _Record(fields=fields, dated=record.dated, authors=record.authors)


def generate(spec: CorpusSpec, seed: int, outdir: str | Path) -> tuple[list[Path], GroundTruth]:
    """Write the three export parts under `outdir`; return their paths and the truth.

    Pass the parts to `biblionet parse` in the returned order: duplicates
    only ever appear in a later part than the record they copy, so the
    parser keeps the originals.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    records = _build_records(spec, seed)
    rng = random.Random(seed ^ 0x5EED)

    first, second = int(len(records) * 0.4), int(len(records) * 0.75)
    part1, part2, part3 = records[:first], records[first:second], records[second:]
    titled = [r for r in records if r.fields["TI"]]
    earlier = titled[: len(titled) * 3 // 4]
    by_accession = [r for r in earlier if r.fields["UT"]]
    accession_copies = rng.sample(by_accession, int(len(records) * spec.accession_dup_share))
    chosen = {id(r) for r in accession_copies}
    triple_copies = [_triple_copy(r) for r in rng.sample(
        [r for r in earlier if id(r) not in chosen], int(len(records) * spec.triple_dup_share))]
    # copies of part-1 records may also sit in part 2; everything else goes to the tab part
    in_part1 = {id(r) for r in part1}
    part2_extra = [r for r in accession_copies if id(r) in in_part1][::2]
    moved = {id(r) for r in part2_extra}
    part3_extra = [r for r in accession_copies if id(r) not in moved] + triple_copies
    rng.shuffle(part3_extra)

    paths = [outdir / "savedrecs_part1.txt", outdir / "savedrecs_part2.txt", outdir / "savedrecs_tab.txt"]
    paths[0].write_text(_tagged(part1), encoding="utf-8", newline="\n")
    paths[1].write_text(_tagged(part2 + part2_extra), encoding="utf-8", newline="\n")
    paths[2].write_text(_tab_delimited(part3 + part3_extra), encoding="utf-8", newline="\n")

    truth = GroundTruth()
    truth.records_skipped = len(records) - len(titled)
    truth.duplicates_removed = len(accession_copies) + len(triple_copies)
    truth.records_parsed = len(titled) + truth.duplicates_removed
    truth.corpus_size = len(titled)
    truth.dated_view_size = sum(r.dated for r in titled)
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for record in titled:
        nodes.update(record.authors)
        for a, b in itertools.combinations(sorted(record.authors), 2):
            edges.add((a, b))
            truth.coauthor_weight_sum += 1
    truth.coauthor_nodes = len(nodes)
    truth.coauthor_edges = len(edges)
    return paths, truth
