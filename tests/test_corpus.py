from __future__ import annotations

import json

import pytest

from repopipe.corpus import (
    LanguageMap,
    SourceFile,
    compute_file_stats,
    detect_language,
)

LANG_MAP = LanguageMap.load()


class TestDetectLanguage:
    def test_canonical_extension(self):
        assert detect_language("src/main.py", LANG_MAP) == "Python"

    def test_basename_language(self):
        assert detect_language("build/Makefile", LANG_MAP) == "Makefile"

    def test_unmapped_extension(self):
        assert detect_language("notes.xyz", LANG_MAP) is None

    def test_no_extension(self):
        assert detect_language("README", LANG_MAP) is None

    def test_case_insensitive_extension(self):
        assert detect_language("Lib/Helper.PY", LANG_MAP) == "Python"

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            detect_language("", LANG_MAP)

    def test_deterministic(self):
        paths = ["a/b.rs", "Dockerfile", "x.yaml", "q.unknownext", "deep/pkg/mod.go"]
        first = [detect_language(p, LANG_MAP) for p in paths]
        second = [detect_language(p, LANG_MAP) for p in paths]
        assert first == second

    def test_closed_set_membership(self):
        lang_map = LanguageMap.load()
        assert len(lang_map.languages) == 87
        for lang in lang_map.extensions.values():
            assert lang in lang_map.languages

    def test_table_spot_checks(self):
        assert detect_language("lib.rs", LANG_MAP) == "Rust"
        assert detect_language("query.sql", LANG_MAP) == "SQL"
        assert detect_language("style.css", LANG_MAP) == "CSS"
        assert detect_language("nb.ipynb", LANG_MAP) == "Jupyter Notebook"
        assert detect_language("t.xslt", LANG_MAP) == "XSLT"

    def test_override_map(self, tmp_path):
        override = tmp_path / "langs.json"
        override.write_text(
            '{"languages": ["Python"], "extensions": {".py": "Python"}, "basenames": {}}'
        )
        lang_map = LanguageMap.load(str(override))
        assert detect_language("a.py", lang_map) == "Python"
        assert detect_language("a.go", lang_map) is None

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"languages": ["Python"], "extensions": {".py": "Python"}}', "missing key 'basenames'"),
            ("not json", "not JSON: Expecting value"),
            ('["Python"]', "not a JSON object"),
            ('{"languages": "Python", "extensions": {}, "basenames": {}}', '"languages" must be a list of strings'),
            ('{"languages": ["Python"], "extensions": {}, "basenames": {"x": 3}}',
             '"basenames" must map strings to strings'),
        ],
        ids=["missing-key", "not-json", "not-an-object", "languages-type", "table-type"],
    )
    def test_malformed_override_map_named(self, tmp_path, text, problem):
        override = tmp_path / "langs.json"
        override.write_text(text)
        with pytest.raises(ValueError) as exc_info:
            LanguageMap.load(str(override))
        assert str(exc_info.value).startswith(f"{override}: ")
        assert problem in str(exc_info.value)

    @pytest.mark.parametrize(
        "table, key",
        [
            ("extensions", ".PY"),
            ("extensions", "py"),
            ("extensions", ".tar.gz"),
            ("extensions", "."),
            ("extensions", ""),
            ("extensions", "./py"),
            ("basenames", "sub/Makefile"),
            ("basenames", "."),
            ("basenames", ""),
        ],
    )
    def test_override_key_no_path_can_match_is_named(self, tmp_path, table, key):
        # detect_language looks up a name's last-dot suffix lower-cased,
        # and a basename without "/": these keys would silently match no
        # file, and every file of their language would be dropped.
        raw = {"languages": ["Python"], "extensions": {".py": "Python"}, "basenames": {}}
        raw[table][key] = "Python"
        override = tmp_path / "langs.json"
        override.write_text(json.dumps(raw))
        with pytest.raises(ValueError) as exc_info:
            LanguageMap.load(str(override))
        assert str(exc_info.value).startswith(f"{override}: ")
        assert repr(key) in str(exc_info.value)

    def test_every_bundled_key_can_match(self):
        lang_map = LanguageMap.load()
        for ext, language in lang_map.extensions.items():
            assert detect_language("a" + ext.upper(), lang_map) == language
        for base, language in lang_map.basenames.items():
            assert detect_language("dir/" + base, lang_map) == language

    def test_override_map_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            LanguageMap.from_dict(
                {"languages": ["Python"], "extensions": {".q": "Quux"}, "basenames": {}}
            )


class TestFileStats:
    def test_two_line_example(self):
        s = compute_file_stats("ab\ncd")
        assert s.avg_line_len == 2
        assert s.max_line_len == 2
        assert s.alphabetic_fraction == pytest.approx(4 / 5)

    def test_empty_content(self):
        s = compute_file_stats("")
        assert (s.avg_line_len, s.max_line_len, s.alphabetic_fraction) == (0, 0, 0)

    def test_three_line_mixed_lengths(self):
        content = "\n".join(["a" * 10, "b" * 20, "c" * 1200])
        s = compute_file_stats(content)
        assert s.max_line_len == 1200
        assert s.avg_line_len == pytest.approx(410)

    def test_unicode_letters_are_alphabetic(self):
        s = compute_file_stats("中文注释")
        assert s.alphabetic_fraction == 1.0

    def test_line_length_in_characters_not_bytes(self):
        s = compute_file_stats("中中中")  # 3 chars, 9 utf-8 bytes
        assert s.max_line_len == 3

    def test_fraction_in_unit_interval(self):
        for content in ("", "123", "abc", "a1\n\n\n", "  \t "):
            s = compute_file_stats(content)
            assert 0.0 <= s.alphabetic_fraction <= 1.0

    def test_fraction_invariant_under_repetition(self):
        content = "alpha=1\nbeta 22\n"
        base = compute_file_stats(content).alphabetic_fraction
        for k in (2, 5, 9):
            assert compute_file_stats(content * k).alphabetic_fraction == pytest.approx(base)


class TestSourceFile:
    def test_immutable(self):
        sf = SourceFile("r1", "a.py", "Python", "x=1", 3)
        with pytest.raises(AttributeError):
            sf.content = "y=2"
