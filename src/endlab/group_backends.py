"""Group backends with a decidable word problem.

Two kinds of backend live here:

* FiniteGroup -- element list plus a multiplication table, fully verified
  at construction (Latin square, identity, inverses, and associativity by
  Light's test on a generating set).
* RewritingGroup -- a finitely generated group presented by a confluent
  shortlex-reducing string rewriting system.  Words are plain strings of
  single-character letters; the normal form of a word is its unique
  irreducible descendant, so equality of elements is string equality.
  The rules are indexed once, at construction, as one regular-expression
  alternation of the left-hand sides in rule order: a search finds the
  leftmost occurrence of any left-hand side, and at a tie the first rule,
  so each rewrite is the one a rule-by-rule scan would pick.  Shortlex
  keys compare words translated to letter-index characters.  When every
  rule cancels, its right-hand side empty, slot_table gives a word
  acceptor (Epstein et al., Word Processing in Groups, 1992, ch. 2): the
  outcome of each product x.c of a normal form x by a letter c, read off
  normal_form of x's last M - 1 letters and c, M the length of the longest
  left-hand side that holds no other one, one of two: x + c is
  irreducible, or a left-hand side ends at c and x.c is a prefix of x.
  cayley_abels.ball_walk reads that table when K is trivial and the
  generators are the whole alphabet: it keeps the state of each frontier
  word, an irreducible x + c is a new coset, found with no lookup, and a
  prefix of x one of its ancestors.  Every other rewriting pair forms its
  rows as plain products.

RewritingGroup, like bass_serre.PiOne, exposes the small backend protocol
the coset machinery needs: identity(), multiply(a, b), inverse(a),
sort_key(a) and one row method, coset_products(cosets), which takes the
members of each coset (one each here, as K = 1) and gives a map from a
label and an optional ceiling to its row (see cayley_abels.ball_walk);
here the row is one normal_form(x + g) per slot, whatever the ceiling.
"""

from __future__ import annotations

import re

from .errors import expect, required

DEFAULT_CAP = 200_000


class FiniteGroup:
    """Finite group on indices 0..n-1 with a verified Cayley table."""

    def __init__(self, elements, table, name="G"):
        self.elements = list(elements)
        self.table = [list(row) for row in table]
        self.name = name
        n = len(self.elements)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table shape does not match element count")
        for row in self.table:
            if sorted(row) != list(range(n)):
                raise ValueError("table rows must permute 0..n-1")
        for column in zip(*self.table):
            if sorted(column) != list(range(n)):
                raise ValueError("table columns must permute 0..n-1")
        self.identity = None
        for e in range(n):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(n)):
                self.identity = e
                break
        if self.identity is None:
            raise ValueError("no identity element")
        # rows permute 0..n-1, so a.b = 1 has exactly one solution b
        self.inverse_table = [row.index(self.identity) for row in self.table]
        for a, b in enumerate(self.inverse_table):
            if self.table[b][a] != self.identity:
                raise ValueError(f"element {a} has no inverse")
        # Light's test: the elements a with (x.a).y = x.(a.y) for all x, y are
        # closed under the product, so it suffices to check generators of the
        # table; the identity passes trivially.  Each generator is the least
        # element outside the left-normed products of the generators so far.
        t = self.table
        gens, closure = [], {self.identity}
        for a in range(n):
            if a not in closure:
                gens.append(a)
                members, closure = [self.identity], {self.identity}
                for u in members:
                    for g in gens:
                        if t[u][g] not in closure:
                            closure.add(t[u][g])
                            members.append(t[u][g])
        for a in gens:
            ay = t[a]
            for x, row in enumerate(t):
                xa = t[row[a]]
                if xa != [row[c] for c in ay]:
                    y = next(y for y in range(n) if xa[y] != row[ay[y]])
                    raise ValueError(f"not associative at ({x},{a},{y})")

    @classmethod
    def cyclic(cls, n, name=None):
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(list(range(n)), table, name or f"C{n}")

    def __len__(self):
        return len(self.elements)

    def mul(self, a, b):
        return self.table[a][b]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {len(self)})"


class RewritingGroup:
    """Group given by a shortlex-reducing string rewriting system.

    Generators and their formal inverses are single-character letters.  A
    letter may be declared its own inverse (an involution), in which case
    the free-reduction rule for it is xx -> empty.  Free-reduction rules
    are added automatically.  Confluence is checked at construction, so
    normal forms are unique and shortlex-least.
    """

    def __init__(self, generators, inverses, rules=(), name="G"):
        self.name = name
        self.generators = list(generators)
        self.inverses = dict(inverses)
        for g in self.generators:
            if g not in self.inverses:
                raise ValueError(f"no inverse letter declared for {g!r}")
        alphabet = []
        for g in self.generators:
            if g not in alphabet:
                alphabet.append(g)
            gi = self.inverses[g]
            if gi not in alphabet:
                alphabet.append(gi)
        for c in alphabet:
            if len(c) != 1:
                raise ValueError(f"letters must be single characters, got {c!r}")
        self.alphabet = alphabet
        self._letters = frozenset(alphabet)
        self._order_table = str.maketrans({c: chr(i) for i, c in enumerate(alphabet)})
        # the inverse map on the full alphabet
        inv = dict(self.inverses)
        for g, gi in self.inverses.items():
            if not self._letters.issuperset((g, gi)):
                raise ValueError(f"inverses[{g!r}] maps outside the alphabet {''.join(alphabet)!r}, got {g!r} -> {gi!r}")
            inv.setdefault(gi, g)
        self.letter_inverse = inv

        seen = set()
        self.rules = []
        for c in alphabet:
            pair = (c + inv[c], "")
            if pair not in seen:
                seen.add(pair)
                self.rules.append(pair)
        for lhs, rhs in rules:
            self._check_letters(lhs)
            self._check_letters(rhs)
            if self.sort_key(rhs) >= self.sort_key(lhs):
                raise ValueError(f"rule {lhs!r} -> {rhs!r} does not reduce shortlex order")
            if (lhs, rhs) not in seen:
                seen.add((lhs, rhs))
                self.rules.append((lhs, rhs))
        self.rules.sort(key=lambda r: (self.sort_key(r[0]), self.sort_key(r[1])))
        self._max_lhs = max(len(l) for l, _ in self.rules)
        self._lhs_search = re.compile("|".join(re.escape(l) for l, _ in self.rules)).search
        self._rhs = {}
        for lhs, rhs in self.rules:
            self._rhs.setdefault(lhs, rhs)
        ok, pair = self.verify_confluence()
        if not ok:
            raise ValueError(f"rewriting system is not confluent: {pair}")

    def _check_letters(self, word):
        for c in word:
            if c not in self._letters:
                raise ValueError(f"unknown letter {c!r}")

    def sort_key(self, word):
        return (len(word), word.translate(self._order_table))

    def identity(self):
        return ""

    def normal_form(self, word):
        """The unique irreducible descendant of word.

        Rewrites the leftmost left-hand side occurrence, first rule first,
        and resumes the search as far back as a rewrite can create a new
        occurrence.
        """
        if not self._letters.issuperset(word):
            self._check_letters(word)
        search, rhs, back = self._lhs_search, self._rhs, self._max_lhs - 1
        m = search(word)
        while m is not None:
            pos = m.start()
            word = word[:pos] + rhs[m.group()] + word[m.end():]
            m = search(word, pos - back if pos > back else 0)
        return word

    def multiply(self, a, b):
        return self.normal_form(a + b)

    def slot_table(self):
        """The outcome of each product x.c of a normal form x by a letter c,
        per state of x, where every rule cancels; else None.

        With M the length of the longest left-hand side that holds no other
        one as a factor, the state of x is its last M - 1 letters, so the
        states are the irreducible words of fewer than M letters, numbered
        in BFS order from the empty word.  table[q] is the pair (outer,
        slots) for x in state q: slots has one slot (code, k, p) per letter
        c, code its index in the alphabet, in alphabet order, and outer
        those that form no x + c.

        As x is irreducible, a left-hand side occurs in x + c only if it
        ends at c.  One that holds another never does: the other would end
        at c too, and cancelling either would leave a different prefix of
        x, two irreducible words of one element, which confluence rules
        out.  So every occurrence lies in w + c, w the word of q, and each
        slot is read off y = normal_form(w + c).  If y is w + c, k is -1:
        x.c is x + c, a child of x, and p the state of y.  Else the leftmost
        occurrence is the longest, its right-hand side empty, so x.c is x
        less its last k = len(w) - len(y) letters, a prefix of x and so
        irreducible, and p is None.  cayley_abels.ball_walk walks a ball
        along this table.
        """
        if any(rhs for _, rhs in self.rules):
            return None
        sides = [lhs for lhs, _ in self.rules]
        back = max(len(l) for l in sides if not any(o != l and o in l for o in sides)) - 1
        words, state, table = [""], {"": 0}, []
        # the loop also reads the states appended while it runs
        for w in words:
            slots = []
            for code, c in enumerate(self.alphabet):
                y = self.normal_form(w + c)
                if y == w + c:
                    t = y[-back:]
                    if t not in state:
                        state[t] = len(words)
                        words.append(t)
                    slots.append((code, -1, state[t]))
                else:
                    slots.append((code, len(w) - len(y), None))
            table.append(([s for s in slots if s[1] != -1], slots))
        return table

    def coset_products(self, cosets):
        """The rows x -> [normal_form(x + g) for [g] in cosets] of a pair
        with K = 1; a coset of more members, or a word g with a letter not
        in the alphabet, raises ValueError.

        The map is x, ceiling=None -> row, the neighbours(x, ceiling) of
        cayley_abels.ball_walk, which allows a row to leave out labels past
        the ceiling; this one forms every slot, as the walk drops the outer
        sphere's targets past the ball itself.
        """
        if any(len(c) != 1 for c in cosets):
            raise ValueError(f"{self!r}: a rewriting backend forms coset rows for K = 1 only")
        gens = [c[0] for c in cosets]
        for g in gens:
            self._check_letters(g)
        return lambda x, ceiling=None: [self.normal_form(x + g) for g in gens]

    def inverse(self, word):
        self._check_letters(word)
        return self.normal_form("".join(self.letter_inverse[c] for c in reversed(word)))

    def verify_confluence(self):
        """Resolve every critical pair; returns (ok, counterexample).

        The counterexample is (word, descendant1, descendant2) for an
        overlap word with two distinct normal forms.
        """
        for l1, r1 in self.rules:
            for l2, r2 in self.rules:
                # proper overlap: a suffix of l1 is a prefix of l2
                for k in range(1, min(len(l1), len(l2))):
                    if l1[-k:] == l2[:k]:
                        word = l1 + l2[k:]
                        one = self.normal_form(r1 + l2[k:])
                        two = self.normal_form(l1[:-k] + r2)
                        if one != two:
                            return False, (word, one, two)
                # containment: l2 occurs strictly inside l1
                if l1 != l2:
                    start = l1.find(l2)
                    while start != -1:
                        one = self.normal_form(r1)
                        two = self.normal_form(l1[:start] + r2 + l1[start + len(l2):])
                        if one != two:
                            return False, (l1, one, two)
                        start = l1.find(l2, start + 1)
        return True, None

    @classmethod
    def from_json(cls, data):
        if data.get("type") != "rewriting_group":
            raise ValueError("not a rewriting_group spec")
        rules = []
        for i, r in enumerate(expect(data.get("rules", []), list, "rules")):
            if not (isinstance(r, list) and len(r) == 2 and all(isinstance(w, str) for w in r)):
                raise ValueError(f"rules[{i}] must be a pair of word strings, got {r!r}")
            rules.append(tuple(r))
        generators = required(data, "generators", "generators", list)
        if not generators:
            raise ValueError("generators must not be empty")
        for i, g in enumerate(generators):
            if len(expect(g, str, f"generators[{i}]")) != 1:
                raise ValueError(f"generators[{i}] must be a single character, got {g!r}")
        inverses = required(data, "inverses", "inverses", dict)
        for g, gi in inverses.items():
            if len(expect(gi, str, f"inverses[{g!r}]")) != 1:
                raise ValueError(f"inverses[{g!r}] must be a single character, got {gi!r}")
        # the alphabet as the constructor forms it, less an undeclared inverse
        letters = {*generators, *(inverses[g] for g in generators if g in inverses)}
        for i, r in enumerate(rules):
            for c in "".join(r):
                if c not in letters:
                    raise ValueError(f"rules[{i}] has unknown letter {c!r}, got {list(r)!r}")
        return cls(
            generators,
            inverses,
            rules,
            name=data.get("name", "G"),
        )

    def __repr__(self):
        return f"RewritingGroup({self.name})"
