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
  keys compare words translated to letter-index characters.  The
  left-hand sides are also compiled once into a word acceptor, the
  Aho-Corasick automaton of Epstein et al., Word Processing in Groups
  (1992), ch. 2.  When every rule cancels, its right-hand side empty,
  slot_table reads off it the outcome of each product x.c of a normal form
  x by a letter c, per acceptor state of x, one of two: x + c is
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
            inv.setdefault(gi, g)
        self.letter_inverse = inv
        if set(inv) != set(alphabet):
            raise ValueError("inverse map must close over the alphabet")

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
        self._build_acceptor()
        ok, pair = self.verify_confluence()
        if not ok:
            raise ValueError(f"rewriting system is not confluent: {pair}")

    def _build_acceptor(self):
        """The Aho-Corasick automaton over the left-hand sides.

        A state is a trie node: the longest suffix of the text read that is
        a prefix of some left-hand side.  _delta[q][c] is the state after
        reading c in state q, and _hit[q] the longest left-hand side that
        is a suffix of q's word ("" for none), inherited through the fail
        links.  A word is irreducible exactly when no state its letters
        pass through has a hit (Epstein et al., Word Processing in Groups,
        1992, ch. 2; Aho and Corasick, CACM 18, 1975).
        """
        goto, hit = [{}], [""]
        for lhs, _ in self.rules:
            q = 0
            for c in lhs:
                if c not in goto[q]:
                    goto[q][c] = len(goto)
                    goto.append({})
                    hit.append("")
                q = goto[q][c]
            hit[q] = lhs
        delta = [{**dict.fromkeys(self.alphabet, 0), **goto[0]}] + [None] * (len(goto) - 1)
        fail = [0] * len(goto)
        # breadth first: a fail state is shallower than its state, so complete before it
        queue = [0]
        for q in queue:
            for c, r in goto[q].items():
                f = fail[r] = delta[fail[q]][c] if q else 0
                delta[r] = {**delta[f], **goto[r]}
                hit[r] = hit[r] or hit[f]
                queue.append(r)
        self._delta, self._hit = delta, hit

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
        per acceptor state of x, for a system whose every rule cancels:
        table[q] is the pair (outer, slots) for a normal form x whose
        letters lead the acceptor to state q, where slots lists one slot
        (code, k, p) per letter, code being its index in the alphabet, in
        alphabet order, and outer those that form no x + c.

        Since x is irreducible, a left-hand side occurs in x + c only if it
        ends at c, and the acceptor finds the longest such from q.  With
        none, k is -1: x.c is x + c, a child of x, and p the state it
        leads to.  Else the leftmost occurrence is the longest, and as its
        right-hand side is empty, x.c is x less its last k letters, k the
        left-hand side's length less one, a prefix of x and so irreducible;
        p is None.  A rule that does not cancel raises ValueError.
        cayley_abels.ball_walk reads this table when it walks a ball along
        the acceptor.
        """
        for lhs, rhs in self.rules:
            if rhs:
                raise ValueError(f"{self!r}: the rule {lhs!r} -> {rhs!r} does not cancel")
        delta, hit = self._delta, self._hit

        def outcome(q, code, c):
            r = delta[q][c]
            return (code, len(hit[r]) - 1, None) if hit[r] else (code, -1, r)

        table = []
        for q in range(len(delta)):
            slots = [outcome(q, code, c) for code, c in enumerate(self.alphabet)]
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
