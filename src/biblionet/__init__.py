"""Corpus analytics for Web of Science style bibliographic exports.

Parses tagged and tab-delimited export files, applies the cleaning rules
(dates, addresses, author lists), computes bibliometric indices and
collaboration ratios, builds weighted collaboration/co-occurrence
graphs, and runs structural network analysis.
"""

from .dedup import SuspectPair, find_suspect_pairs, levenshtein, similarity_ratio
from .errors import DegenerateDataError, FormatError
from .graph_stats import (
    AssortativityResult,
    CentralityTable,
    PowerLawFit,
    SmallWorldReport,
    avg_shortest_path,
    betweenness_centrality,
    centrality_table,
    closeness_centrality,
    clustering,
    degree_assortativity,
    degree_centrality,
    fit_power_law,
    per_component_assortativity,
    small_world_check,
)
from .graphs import (
    GraphFacts,
    GraphKind,
    WeightedGraph,
    build_graph,
    graph_facts,
    top_weighted_edges,
)
from .keywords import StopwordSet, filter_stopwords, keyword_frequencies
from .metrics import (
    AuthorRow,
    CorrelationMatrix,
    MonthlySeries,
    author_table,
    correlation_matrix,
    degree_of_collaboration,
    descriptive_stats,
    g_index,
    h_index,
    international_collab_ratio,
    monthly_counts,
    most_cited,
    multidisciplinary_ratio,
    pearson,
    top_k,
)
from .normalize import (
    NormalizationRules,
    YearMonth,
    canonicalize_country,
    extract_countries,
    extract_countries_and_institutions,
    extract_institutions,
    normalize_date,
    split_authors,
    split_list_field,
)
from .wos_ingest import (
    BiblioRecord,
    Corpus,
    ParseResult,
    detect_duplicates,
    iter_corpus_records,
    merge_corpora,
    parse_export,
    parse_file,
    read_corpus_column,
    read_corpus_jsonl,
    write_corpus_jsonl,
)

__version__ = "0.1.0"
