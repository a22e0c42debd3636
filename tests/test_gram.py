import random
from fractions import Fraction

import pytest

from qflat import exact
from qflat.gram import (
    GramForm,
    GramFormatError,
    SingularFormError,
    e8_form,
    hyperbolic_plane,
    identity_form,
    orthogonal_sum,
    parse_gram_text,
    scale_form,
)


def test_parse_round_trip():
    f = GramForm([[2, 1], [1, 2]])
    assert parse_gram_text(f.text()) == f
    assert parse_gram_text(f.text(comment="a small even form")) == f


def test_parse_with_comments_and_blank_lines():
    text = """
# leading comment
2
 2 1   # trailing note
 1 2
"""
    f = parse_gram_text(text)
    assert f.matrix == ((2, 1), (1, 2))


def test_parse_rejects_asymmetric():
    with pytest.raises(GramFormatError, match="not symmetric"):
        parse_gram_text("2\n1 2\n3 1\n")


def test_parse_rejects_bad_shapes():
    with pytest.raises(GramFormatError):
        parse_gram_text("")
    with pytest.raises(GramFormatError):
        parse_gram_text("2\n1 0\n")
    with pytest.raises(GramFormatError):
        parse_gram_text("2 2\n1 0\n0 1\n")


def test_value_and_inner_polarization():
    rng = random.Random(5)
    f = GramForm([[2, 1, 0], [1, 4, -1], [0, -1, 6]])
    for _ in range(50):
        x = tuple(rng.randint(-5, 5) for _ in range(3))
        y = tuple(rng.randint(-5, 5) for _ in range(3))
        s = tuple(a + b for a, b in zip(x, y))
        d = tuple(a - b for a, b in zip(x, y))
        assert f.inner(x, y) == Fraction(f.value(s) - f.value(d), 4)
        assert f.inner(x, x) == f.value(x)


def test_signature_examples():
    assert identity_form(4).signature == (4, 0)
    assert hyperbolic_plane().signature == (1, 1)
    assert GramForm([[1, 0], [0, -1]]).signature == (1, 1)
    assert e8_form().signature == (8, 0)
    assert scale_form(identity_form(3), -2).signature == (0, 3)


def test_of_passes_a_form_through_and_builds_one_from_rows():
    f = GramForm([[2, 1], [1, 2]])
    assert f.determinant == 3
    assert GramForm.of(f) is f
    assert "determinant" in vars(GramForm.of(f))
    rows = [[0, 1], [1, 0]]
    assert GramForm.of(rows) == GramForm(rows)
    assert GramForm.of(rows).signature == (1, 1)
    with pytest.raises(ValueError, match="symmetric"):
        GramForm.of([[1, 2], [3, 4]])


def test_determinants():
    assert e8_form().determinant == 1
    assert hyperbolic_plane().determinant == -1
    assert identity_form(5).determinant == 1
    u3 = scale_form(hyperbolic_plane(), 3)
    assert u3.matrix == ((0, 3), (3, 0))
    assert u3.determinant == -9


def test_even_flag():
    assert e8_form().is_even
    assert hyperbolic_plane().is_even
    assert not identity_form(2).is_even


def test_singular_rejected():
    f = GramForm([[1, 1], [1, 1]])
    with pytest.raises(SingularFormError):
        f.determinant
    with pytest.raises(SingularFormError):
        f.signature


def test_orthogonal_sum_structure():
    s = orthogonal_sum(e8_form(), GramForm([[2]]))
    assert s.n == 9
    assert s.determinant == 2
    assert s.signature == (9, 0)
    assert s.is_even


def test_e8_minimal_sanity():
    g = e8_form()
    # positive definite by Sylvester's criterion: leading minors positive
    minors, _ = exact.positive_split(g.matrix)
    assert all(x > 0 for x in minors)


def test_form_hash_stability():
    a = GramForm([[2, 1], [1, 2]])
    b = GramForm([[2, 1], [1, 2]])
    c = GramForm([[2, 0], [0, 2]])
    assert a.form_hash == b.form_hash
    assert a.form_hash != c.form_hash
    assert len(a.form_hash) == 16


def test_lorentzian_builder():
    q = orthogonal_sum(hyperbolic_plane(), e8_form())
    assert q.signature == (9, 1)
    assert q.determinant == -1
    assert q.is_even
