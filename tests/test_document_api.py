"""Tests for the Document facade and the index options."""

from __future__ import annotations

import dataclasses

import pytest

from repro import Document, EvaluationOptions, IndexOptions, UnsupportedQueryError
from repro.text.pssm import PositionWeightMatrix
from repro.workloads import generate_bio_xml, jaspar_like_matrices
from repro.xpath.compiler import QueryCompiler
from repro.xpath.parser import parse_xpath


class TestConstruction:
    def test_from_string_and_file(self, tmp_path):
        xml = "<a><b>x</b></a>"
        from_string = Document.from_string(xml)
        path = tmp_path / "doc.xml"
        path.write_text(xml)
        from_file = Document.from_file(path)
        assert from_string.count("//b") == from_file.count("//b") == 1

    def test_from_model(self, xmark_model):
        doc = Document.from_model(xmark_model)
        assert doc.num_nodes == xmark_model.num_nodes
        assert doc.num_texts == xmark_model.num_texts

    def test_index_options_sample_rate(self):
        xml = "<a><b>hello world</b><b>hello there</b></a>"
        fast = Document.from_string(xml, IndexOptions(sample_rate=4))
        slow = Document.from_string(xml, IndexOptions(sample_rate=64))
        assert fast.count('//b[contains(., "hello")]') == slow.count('//b[contains(., "hello")]') == 2

    def test_no_plain_text_store(self):
        doc = Document.from_string("<a><b>needle in text</b></a>", IndexOptions(keep_plain_text=False))
        assert doc.text_collection.plain is None
        assert doc.count('//b[contains(., "needle")]') == 1
        assert doc.serialize("//b") == ["<b>needle in text</b>"]

    def test_rlcsa_text_index(self):
        doc = Document.from_string(
            "<g><seq>ACGTACGTACGT</seq><seq>ACGTACGTACGT</seq></g>", IndexOptions(text_index="rlcsa")
        )
        assert doc.count('//seq[contains(., "GTAC")]') == 2

    def test_word_index_option(self):
        doc = Document.from_string(
            "<d><t>the quick brown fox</t><t>a brown dog</t></d>", IndexOptions(word_index=True)
        )
        assert doc.word_index is not None
        doc.word_semantics = True
        assert doc.count('//t[contains(., "brown")]') == 2
        # Word semantics: substrings that are not whole words do not match.
        assert doc.count('//t[contains(., "row")]') == 0
        doc.word_semantics = False
        assert doc.count('//t[contains(., "row")]') == 2

    def test_options_replace(self):
        options = IndexOptions().replace(sample_rate=8)
        assert options.sample_rate == 8
        run = EvaluationOptions().replace(jumping=False)
        assert not run.jumping and run.memoization

    def test_evaluation_options_are_the_ablation_switches(self):
        # One engine path: the only switches are the Fig. 12 ablations, the
        # bottom-up permission and counting mode. A kernel-selection option
        # must not come back.
        assert [f.name for f in dataclasses.fields(EvaluationOptions)] == [
            "jumping",
            "memoization",
            "lazy_result_sets",
            "early_evaluation",
            "use_tag_tables",
            "allow_bottom_up",
            "counting",
        ]


class TestStatisticsAndSizes:
    def test_index_size_report(self, xmark_document):
        sizes = xmark_document.index_size_bits()
        assert set(sizes) == {"tree", "text_index", "plain_text", "total"}
        assert sizes["total"] == sizes["tree"] + sizes["text_index"] + sizes["plain_text"]
        assert sizes["tree"] > 0 and sizes["text_index"] > 0

    def test_tag_counts(self, paper_example_document):
        counts = paper_example_document.tag_counts()
        assert counts["part"] == 2
        assert counts["stock"] == 2
        assert counts["&"] == 1

    def test_node_path(self, paper_example_document):
        doc = paper_example_document
        stock = doc.query("//stock")[0]
        assert doc.node_path(stock) == "/&/parts/part/stock"

    def test_preorder_ids(self, paper_example_document):
        doc = paper_example_document
        nodes = doc.query("//part")
        assert doc.preorder_ids(nodes) == [doc.tree.preorder(n) for n in nodes]


class TestTextAccess:
    def test_get_text_and_string_value(self, paper_example_document):
        doc = paper_example_document
        assert doc.get_text(0) == "pen"
        part2 = doc.query("//part")[1]
        assert doc.string_value(part2) == "rubber30"

    def test_is_pcdata_only(self, small_site_document):
        doc = small_site_document
        assert doc.is_pcdata_only("keyword")
        assert doc.is_pcdata_only("name")
        assert not doc.is_pcdata_only("text")  # mixed content in listitem text
        assert doc.is_pcdata_only("not-a-tag")

    def test_match_text_predicate_kinds(self, small_site_document):
        doc = small_site_document
        assert doc.match_text_predicate("contains", "rare").size == 1
        assert doc.match_text_predicate("starts-with", "Ali").size == 1
        assert doc.match_text_predicate("ends-with", "5").size == 1
        assert doc.match_text_predicate("equals", "Bob").size == 1
        with pytest.raises(ValueError):
            doc.match_text_predicate("unknown", "x")


class TestPssmRegistry:
    def test_register_and_query(self):
        matrices = jaspar_like_matrices()
        doc = Document.from_string(generate_bio_xml(num_genes=4, promoter_length=80, exon_length=40))
        matrix = matrices["M1"]
        doc.register_pssm("M1", matrix, threshold=matrix.max_score() - 4.0)
        count = doc.count("//promoter[ PSSM(., M1) ]")
        assert count >= 0
        assert doc.count("//promoter") >= count

    def test_threshold_override(self):
        doc = Document.from_string("<g><s>ACGTACGT</s></g>")
        matrix = PositionWeightMatrix.from_counts([[9, 0, 0, 0], [0, 9, 0, 0], [0, 0, 9, 0], [0, 0, 0, 9]])
        doc.register_pssm("M", matrix, threshold=matrix.max_score() + 100)
        assert doc.count("//s[PSSM(., M)]") == 0
        assert doc.count(f"//s[PSSM(., M, {matrix.max_score() - 1.0})]") == 1

    def test_unregistered_matrix_raises(self):
        doc = Document.from_string("<g><s>ACGT</s></g>")
        with pytest.raises(KeyError):
            doc.count("//s[PSSM(., UNKNOWN)]")


class TestErrors:
    def test_unsupported_query_surfaces(self, paper_example_document):
        path = parse_xpath("//part")
        relative = path.__class__(steps=path.steps, absolute=False)
        with pytest.raises(UnsupportedQueryError):
            QueryCompiler(list(paper_example_document.tree.tag_names())).compile(relative)

    def test_self_filters_now_supported(self, paper_example_document):
        # '//part[self::color]' used to raise; self filters are resolved by
        # label-class splitting now and agree with plain name selection.
        assert paper_example_document.count("//part[self::color]") == 0
        assert paper_example_document.count("//*[self::part]") == paper_example_document.count("//part")
