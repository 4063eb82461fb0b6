"""Each move word is a mapping class or a conjugation of the surface group.

The surface group of a genus-g surface with n punctures is free on
a_1, b_1, ..., a_g, b_g, w_1, ..., w_n with the one relator
R = [a_1,b_1] ... [a_g,b_g] w_1 ... w_n, so a move given by words in
these letters is induced by a mapping class when it fixes R after free
reduction and sends each puncture letter to a conjugate of a puncture
letter.  Each row of moves._MOVE_WORDS and of move_oracle.REMOVED_WORDS
is spliced into R at every site index it has, for g, n <= 3.  GlobalConj
by x, the basepoint push, must give x R x^-1 instead.  This is the
premise of the stable-range certificate: the catalog orbits of a level
are then no fewer than its mapping-class orbits.
"""

import pytest

from schur_orbits.moves import _MOVE_WORDS, _site_slots

from move_oracle import REMOVED_WORDS

ROWS = {**_MOVE_WORDS, **REMOVED_WORDS}


def reduce(word):
    """The free reduction of a word, a tuple of (letter, +1 or -1)."""
    out = []
    for s in word:
        if out and out[-1] == (s[0], -s[1]):
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def inverse(word):
    return tuple((a, -e) for a, e in reversed(word))


def letter(slot, g):
    """The free generator at a letter slot of a genus-g tuple."""
    if slot < 2 * g:
        return ("ab"[slot % 2] + str(slot // 2), 1),
    return ("w" + str(slot - 2 * g), 1),


def relator(g, n):
    r = ()
    for i in range(g):
        a, b = letter(2 * i, g), letter(2 * i + 1, g)
        r += a + b + inverse(a) + inverse(b)
    for j in range(n):
        r += letter(2 * g + j, g)
    return r


def images(row, i, g, n):
    """(the image of each letter slot, the slot each puncture slot takes
    its sign from) under the move of a row at site index i."""
    site, words, signs = row
    image = {s: letter(s, g) for s in range(2 * g + n)}
    source = {s: s for s in range(2 * g, 2 * g + n)}
    for names in _site_slots(site, i, g, n):
        env = {name: letter(slot, g) for name, slot in names.items()}
        env["x"] = (("x", 1),)
        for name, text in words.items():
            p = ()
            for tok in text.split():
                p += inverse(env[tok[:-1]]) if tok.endswith("'") else env[tok]
            if name in names:
                image[names[name]] = reduce(p)  # later words read the old letter
            else:
                env[name] = reduce(p)
        for dst, src in signs.items():
            source[names[dst]] = names[src]
    return image, source


def substitute(word, image, g):
    """The word with each generator replaced by its image."""
    by_letter = {letter(s, g)[0][0]: w for s, w in image.items()}
    out = ()
    for a, e in word:
        out += by_letter[a] if e == 1 else inverse(by_letter[a])
    return out


def is_conjugate_of(word, s):
    """Whether a reduced word is u s u^-1 for a generator s."""
    m = len(word) // 2
    return (len(word) % 2 == 1 and word[m] == s
            and word[:m] == inverse(word[m + 1:]))


def placements(site, g, n):
    """The site indices a move of a site has on a genus-g, n-puncture
    tuple."""
    count = {"punctures": n - 1, "handle": g, "handles": g - 1,
             "boundary": int(g >= 1 and n >= 1), "each letter": 1}[site]
    return range(max(count, 0))


LEVELS = [(g, n) for g in range(4) for n in range(4)]


@pytest.mark.parametrize("kind", sorted(ROWS))
def test_move_words_fix_the_surface_relator(kind):
    row = ROWS[kind]
    placed = 0
    for g, n in LEVELS:
        r = relator(g, n)
        want = reduce((("x", 1),) + r + (("x", -1),)) if kind == "GlobalConj" \
            else r
        for i in placements(row[0], g, n):
            placed += 1
            image, source = images(row, i, g, n)
            moved = reduce(substitute(r, image, g))
            assert moved == want, (kind, g, n, i)
            for j in range(2 * g, 2 * g + n):
                assert is_conjugate_of(image[j], letter(source[j], g)[0]), \
                    (kind, g, n, i, j)
    # the fewest: BoundaryBlockTwist, once at each g, n >= 1
    assert placed >= 9
