"""Maximum-weight matching on a general graph, by Edmonds' blossom algorithm.

The primal-dual method follows Galil, "Efficient algorithms for finding
maximum matching in graphs", ACM Comput. Surv. 18(1), 1986, in the form of
Joris van Rantwijk's ``mwmatching`` that networkx ships as
``max_weight_matching``.  Vertices are ``0..n-1``; non-trivial blossoms get
integer ids ``n..2n-1``.  Weights sit in an ``n x n`` table, neighbours in
ascending lists, and labels, mates, duals and blossom links in lists indexed
by vertex or blossom id, so the inner loops touch no dicts or graph views.

Every choice among equal candidates is made in the order networkx makes it
for a graph built from ``sorted(weights)``: vertices ascending, neighbours
ascending, blossoms in creation order, the S-vertex queue last-in first-out.
Both therefore return the same pairs, not merely matchings of equal weight.
Weights are ints, so every result is checked for dual optimality.

Each best edge's slack sits beside it in ``bestslack``, refreshed once per
dual update, so no comparison recomputes the slack of the stored edge.  No
matrix of allowed edges is kept: van Rantwijk marks an edge allowed only when
its slack is zero, so between two top-level blossoms "allowed" is exactly
"int slack <= 0", which the scan computes once per edge.

The dual check, ``verify_optimum``, runs on every call and checks every
edge.  An edge's slack gains twice the dual of each blossom round both of
its ends, but a zero-dual blossom adds nothing, and at the end few blossoms
have a positive dual (on a 47-vertex ring cluster, 3 of 23 blossoms nested
12 deep).  So each vertex is grouped by the chain of positive-dual blossoms
round it, the bonus is summed once per pair of chains, and each vertex's
row of later neighbours is checked with one comprehension and ``min``.

``exhaustive_matching`` is the brute-force counterpart that only the oracles
use: it visits every matching in lexicographic order and counts them.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain

from .errors import ContractError


def max_weight_matching(n: int, weights: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """Pairs ``(i, j)``, ``i < j``, ascending, of a maximum-weight matching.

    ``weights`` maps each edge ``(i, j)`` with ``0 <= i < j < n`` to its
    ``int`` weight; a key of non-``int`` vertices or out of that order or
    range, or a weight that is not an ``int``, raises ContractError naming
    the edge.  The dual variables stay integral, and the result is checked
    for dual optimality by ``verify_optimum`` before it is returned.
    """
    adjacency: list[list[int]] = [[] for _ in range(n)]
    # twice each weight: slacks and duals are kept pre-multiplied by two
    weight2 = [[0] * n for _ in range(n)]
    maxweight = 0
    for i, j in sorted(weights):
        if type(i) is not int or type(j) is not int or not 0 <= i < j < n:
            raise ContractError(f"max-weight matching: edge ({i}, {j}) is not (i, j) with 0 <= i < j < {n}")
        w = weights[(i, j)]
        if type(w) is not int:
            raise ContractError(f"max-weight matching: edge ({i}, {j}) weight {w!r} is not an int")
        adjacency[i].append(j)
        adjacency[j].append(i)
        weight2[i][j] = weight2[j][i] = 2 * w
        if w > maxweight:
            maxweight = w
    if n == 0:
        return []

    # mate[v] is v's partner, -1 while v is single
    mate = [-1] * n
    # label[b] of a top-level blossom b: 0 free, 1 S, 2 T (5 while scanning);
    # label[v] of a vertex inside a T-blossom is 2 iff v is reachable from an
    # S-vertex outside it
    label = [0] * (2 * n)
    # labeledge[b] = (v, w): the edge through which b got its label, w in b;
    # None when b's base is single
    labeledge: list[tuple[int, int] | None] = [None] * (2 * n)
    # top-level blossom containing each vertex
    inblossom = list(range(n))
    blossomparent = [-1] * (2 * n)
    blossombase = list(range(n)) + [-1] * n
    # childs[b]: sub-blossoms from the base round the cycle;
    # blossomedges[b][i] joins childs[b][i] to childs[b][i + 1]
    childs: list[list[int]] = [[] for _ in range(2 * n)]
    blossomedges: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    # least-slack edges from a top-level S-blossom to other S-blossoms
    mybestedges: list[list[tuple[int, int]] | None] = [None] * (2 * n)
    # bestedge[w] of a free vertex: its least-slack edge from an S-vertex;
    # bestedge[b] of a top-level S-blossom: its least-slack edge to another
    # S-blossom; bestslack holds each one's slack, inf where it is None
    bestedge: list[tuple[int, int] | None] = [None] * (2 * n)
    bestslack: list[float] = [math.inf] * (2 * n)
    # 2 * u(v) per vertex and z(b) per blossom
    dualvar = [maxweight] * n
    blossomdual = [0] * (2 * n)
    # live non-trivial blossoms in creation order, and the ids not in use
    blossoms: list[int] = []
    unused = list(range(2 * n - 1, n - 1, -1))
    queue: list[int] = []

    def leaves(b: int) -> list[int]:
        out = []
        stack = list(childs[b])
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(childs[t])
            else:
                out.append(t)
        return out

    def assign_label(w: int, t: int, v: int):
        # label the top-level blossom of w with t, reached from v (-1: none);
        # a loop, not the reference's recursion, so that no nested function
        # refers to itself and a call's state is freed on return
        while True:
            b = inblossom[w]
            label[w] = label[b] = t
            labeledge[w] = labeledge[b] = (v, w) if v != -1 else None
            bestedge[w] = bestedge[b] = None
            bestslack[w] = bestslack[b] = math.inf
            if t == 1:
                if b >= n:
                    queue.extend(leaves(b))
                else:
                    queue.append(b)
                return
            # a T-blossom's base is its only vertex with an outside mate
            v = blossombase[b]
            w, t = mate[v], 1

    def scan_blossom(v: int, w: int) -> int:
        # base of the blossom closed by edge (v, w), or -1 for an augmenting path
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = -1
            else:
                v = labeledge[b][0]
                v = labeledge[inblossom[v]][0]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int):
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unused.pop()
        blossoms.append(b)
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path = childs[b] = []
        edgs = blossomedges[b] = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            w = labeledge[bw][0]
            bw = inblossom[w]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                # a T-vertex inside the new S-blossom turns S
                queue.append(v)
            inblossom[v] = b
        # the least-slack edge to each other S-blossom, and its slack
        bestedgeto: dict[int, tuple[int, int]] = {}
        slackto: dict[int, int] = {}
        for bv in path:
            if bv >= n and mybestedges[bv] is not None:
                for k in mybestedges[bv]:
                    i, j = k
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = inblossom[j]
                    if bj != b and label[bj] == 1:
                        kslack = dualvar[i] + dualvar[j] - weight2[i][j]
                        if kslack < slackto.get(bj, math.inf):
                            bestedgeto[bj] = k
                            slackto[bj] = kslack
                mybestedges[bv] = None
            else:
                # every edge here starts at a leaf of bv, inside b
                for v in leaves(bv) if bv >= n else (bv,):
                    dual_v = dualvar[v]
                    weight2_v = weight2[v]
                    for w in adjacency[v]:
                        bj = inblossom[w]
                        if bj != b and label[bj] == 1:
                            kslack = dual_v + dualvar[w] - weight2_v[w]
                            if kslack < slackto.get(bj, math.inf):
                                bestedgeto[bj] = (v, w)
                                slackto[bj] = kslack
            bestedge[bv] = None
            bestslack[bv] = math.inf
        mybestedges[b] = list(bestedgeto.values())
        bestedge[b] = None
        bestslack[b] = math.inf
        for bj, kslack in slackto.items():
            if kslack < bestslack[b]:
                bestedge[b] = bestedgeto[bj]
                bestslack[b] = kslack

    def forget_blossom(b: int):
        label[b] = 0
        labeledge[b] = None
        bestedge[b] = None
        bestslack[b] = math.inf
        mybestedges[b] = None
        blossombase[b] = -1
        blossomparent[b] = -1
        blossoms.remove(b)
        unused.append(b)

    def relabel_expanded_t_blossom(b: int):
        # start at the sub-blossom through which b got its label and relabel
        # sub-blossoms round the even-length side until the base
        entrychild = inblossom[labeledge[b][1]]
        sub = childs[b]
        edgs = blossomedges[b]
        j = sub.index(entrychild)
        if j & 1:
            j -= len(sub)
            jstep = 1
        else:
            jstep = -1
        v, w = labeledge[b]
        while j != 0:
            if jstep == 1:
                p, q = edgs[j]
            else:
                q, p = edgs[j - 1]
            label[w] = 0
            label[q] = 0
            assign_label(w, 2, v)
            j += jstep
            if jstep == 1:
                v, w = edgs[j]
            else:
                w, v = edgs[j - 1]
            j += jstep
        # the base T-sub-blossom is relabeled without stepping to its mate
        bw = sub[j]
        label[w] = label[bw] = 2
        labeledge[w] = labeledge[bw] = (v, w)
        bestedge[bw] = None
        bestslack[bw] = math.inf
        j += jstep
        while sub[j] != entrychild:
            # a sub-blossom holding a vertex reachable from outside turns T
            bv = sub[j]
            if label[bv] == 1:
                j += jstep
                continue
            if bv >= n:
                for v in leaves(bv):
                    if label[v]:
                        break
            else:
                v = bv
            if label[v]:
                label[v] = 0
                label[mate[blossombase[bv]]] = 0
                assign_label(v, 2, labeledge[v][0])
            j += jstep

    def expand_blossom(b: int, endstage: bool):
        # at the end of a stage, zero-dual sub-blossoms are expanded as well;
        # they are disjoint, so the order in which they are expanded is free
        stack = [b]
        while stack:
            b = stack.pop()
            for s in childs[b]:
                blossomparent[s] = -1
                if s < n:
                    inblossom[s] = s
                elif endstage and blossomdual[s] == 0:
                    stack.append(s)
                else:
                    for v in leaves(s):
                        inblossom[v] = s
            if not endstage and label[b] == 2:
                relabel_expanded_t_blossom(b)
            forget_blossom(b)

    def augment_blossom(b: int, v: int):
        # swap matched and unmatched edges on the path in b from v to the
        # base; sub-blossoms are handled depth first, as the recursion in the
        # reference does, through a stack of generators
        def recurse(b: int, v: int):
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if t >= n:
                yield t, v
            sub = childs[b]
            edgs = blossomedges[b]
            i = j = sub.index(t)
            if i & 1:
                j -= len(sub)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = sub[j]
                if jstep == 1:
                    w, x = edgs[j]
                else:
                    x, w = edgs[j - 1]
                if t >= n:
                    yield t, w
                j += jstep
                t = sub[j]
                if t >= n:
                    yield t, x
                mate[w] = x
                mate[x] = w
            childs[b] = sub[i:] + sub[:i]
            blossomedges[b] = edgs[i:] + edgs[:i]
            blossombase[b] = blossombase[childs[b][0]]

        stack = [recurse(b, v)]
        while stack:
            for args in stack[-1]:
                stack.append(recurse(*args))
                break
            else:
                stack.pop()

    def augment_matching(v: int, w: int):
        # augment along the path through S-vertices v and w to two single vertices
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = s

    # each stage finds one augmenting path, or proves the matching optimal
    while True:
        label[:] = [0] * (2 * n)
        labeledge[:] = [None] * (2 * n)
        bestedge[:] = [None] * (2 * n)
        bestslack[:] = [math.inf] * (2 * n)
        for b in blossoms:
            mybestedges[b] = None
        queue.clear()

        for v in range(n):
            if mate[v] == -1:
                b = inblossom[v]
                if b == v:
                    # the reset left v as assign_label(v, 1, -1) would, but unlabeled
                    label[v] = 1
                    queue.append(v)
                elif label[b] == 0:
                    assign_label(v, 1, -1)

        augmented = False
        while True:
            # grow alternating trees until every reachable vertex is labeled
            while queue and not augmented:
                v = queue.pop()
                dual_v = dualvar[v]
                weight2_v = weight2[v]
                # only add_blossom moves v to another top-level blossom or
                # changes that blossom's best slack
                bv = inblossom[v]
                bestslack_bv = bestslack[bv]
                for w in adjacency[v]:
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    kslack = dual_v + dualvar[w] - weight2_v[w]
                    if kslack > 0:
                        if label[bw] == 1:
                            if kslack < bestslack_bv:
                                bestedge[bv] = (v, w)
                                bestslack[bv] = bestslack_bv = kslack
                        elif label[w] == 0 and kslack < bestslack[w]:
                            bestedge[w] = (v, w)
                            bestslack[w] = kslack
                    elif label[bw] == 0:
                        # w is free: label it T and its mate S
                        assign_label(w, 2, v)
                    elif label[bw] == 1:
                        base = scan_blossom(v, w)
                        if base != -1:
                            add_blossom(base, v, w)
                            bv = inblossom[v]
                            bestslack_bv = bestslack[bv]
                        else:
                            augment_matching(v, w)
                            augmented = True
                            break
                    elif label[w] == 0:
                        # w lies inside a T-blossom and is now reached
                        label[w] = 2
                        labeledge[w] = (v, w)

            if augmented:
                break

            # no augmenting path on tight edges: move the duals by delta
            # delta1: the least vertex dual
            deltatype = 1
            delta = min(dualvar)
            deltaedge = None
            deltablossom = -1
            # the label of each vertex's top-level blossom
            toplabel = [label[b] for b in inblossom]
            # delta2: least slack of an edge from an S-vertex to a free vertex;
            # bestslack is inf where bestedge is None
            for v, t in enumerate(toplabel):
                if t == 0 and bestslack[v] < delta:
                    delta = bestslack[v]
                    deltatype = 2
                    deltaedge = bestedge[v]
            # delta3: half the least slack of an edge between two S-blossoms
            for b in chain(range(n), blossoms):
                if blossomparent[b] == -1 and label[b] == 1 and bestedge[b] is not None:
                    d = bestslack[b] // 2
                    if d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]
            # delta4: the least dual of a top-level T-blossom
            for b in blossoms:
                if blossomparent[b] == -1 and label[b] == 2 and blossomdual[b] < delta:
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b

            dualvar[:] = [
                d - delta if t == 1 else d + delta if t == 2 else d for d, t in zip(dualvar, toplabel)
            ]
            for b in blossoms:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta
            for x, e in enumerate(bestedge):
                if e is not None:
                    bestslack[x] = dualvar[e[0]] + dualvar[e[1]] - weight2[e[0]][e[1]]

            if deltatype == 1:
                break
            elif deltatype in (2, 3):
                # the edge is tight now, so the scan of v takes it
                queue.append(deltaedge[0])
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break

        # end of stage: expand every top-level S-blossom whose dual is zero
        for b in list(blossoms):
            if b in blossoms and blossomparent[b] == -1 and label[b] == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    verify_optimum(adjacency, weight2, mate, dualvar, blossomparent, blossomdual, blossoms, blossomedges)
    return [(v, mate[v]) for v in range(n) if mate[v] > v]


def verify_optimum(
    adjacency: list[list[int]],
    weight2: list[list[int]],
    mate: list[int],
    dualvar: list[int],
    blossomparent: list[int],
    blossomdual: list[int],
    blossoms: list[int],
    blossomedges: list[list[tuple[int, int]]],
) -> None:
    """Raise ContractError unless the matching and its duals prove it optimal.

    The state is that of ``max_weight_matching`` on ``n = len(mate)``
    vertices: ascending neighbour lists, doubled weights, mates (-1 single),
    doubled vertex duals, and, indexed by blossom id, parents (-1 at the top),
    duals and cycle edges, with ``blossoms`` the live non-trivial ids.  An
    edge's slack is ``dualvar[i] + dualvar[j] - weight2[i][j]`` plus twice
    the dual of every blossom that holds both ends.  Checked are: no dual is
    negative, no edge has negative slack, every matched edge is mutual and
    has slack 0, every single vertex has dual 0, and every blossom with a
    positive dual is full.
    """
    if min(dualvar) < 0 or any(blossomdual[b] < 0 for b in blossoms):
        raise ContractError("max-weight matching: negative dual variable")
    n = len(mate)
    # a zero-dual blossom adds nothing to a slack, so group the vertices by the
    # chain of positive-dual blossoms round them, outermost first
    chains: dict[tuple[int, ...], int] = {}
    group = []
    for v in range(n):
        chain_v = []
        b = blossomparent[v]
        while b != -1:
            if blossomdual[b]:
                chain_v.append(b)
            b = blossomparent[b]
        chain_v.reverse()
        group.append(chains.setdefault(tuple(chain_v), len(chains)))
    # offset[g][j]: dualvar[j] plus twice the duals of the blossoms round j
    # and any vertex of group g, which are the chains' common prefix
    offset = []
    for chain_g in chains:
        bonus = []
        for chain_h in chains:
            total = 0
            for bg, bh in zip(chain_g, chain_h):
                if bg != bh:
                    break
                total += 2 * blossomdual[bg]
            bonus.append(total)
        offset.append([d + bonus[g] for d, g in zip(dualvar, group)])
    for i in range(n):
        neighbours = adjacency[i]
        later = neighbours[bisect_right(neighbours, i):]
        if not later:
            continue
        offset_i = offset[group[i]]
        weight2_i = weight2[i]
        if dualvar[i] + min([offset_i[j] - weight2_i[j] for j in later]) < 0:
            j = next(j for j in later if dualvar[i] + offset_i[j] - weight2_i[j] < 0)
            raise ContractError(f"max-weight matching: edge ({i}, {j}) has negative slack")
    for i, j in enumerate(mate):
        if j != -1 and (mate[j] != i or dualvar[i] + offset[group[i]][j] - weight2[i][j] != 0):
            raise ContractError(f"max-weight matching: matched edge ({min(i, j)}, {max(i, j)}) is not tight")
    for v in range(n):
        if mate[v] == -1 and dualvar[v] != 0:
            raise ContractError(f"max-weight matching: single vertex {v} has nonzero dual")
    for b in blossoms:
        if blossomdual[b] > 0:
            if len(blossomedges[b]) % 2 != 1 or any(
                mate[i] != j or mate[j] != i for i, j in blossomedges[b][1::2]
            ):
                raise ContractError(f"max-weight matching: blossom {b} with positive dual is not full")


def exhaustive_matching(
    n: int, weights: dict[tuple[int, int], int], limit: float = math.inf
) -> tuple[list[tuple[int, int]], int, int]:
    """The first strictly heaviest matching, its weight, and the matchings visited.

    Every matching of the edges ``(i, j)``, ``i < j``, in ``weights`` is
    visited, the empty one included: the lowest unused vertex is paired with
    each partner in ascending order before it is left single, so matchings
    come in lexicographic order.  A matching is kept when its exact integer
    weight exceeds every earlier one and 0; with none, the result is ``[]``
    and 0.  The walk stops once more than ``limit`` matchings have
    been visited, so a count above ``limit`` marks an unfinished search.
    """
    partners: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j in sorted(weights):
        partners[i].append((j, weights[(i, j)]))
    chosen: list[tuple[int, int]] = []
    best_pairs: list[tuple[int, int]] = []
    best_total = 0
    visited = 0

    def walk(i: int, used: int, total: int) -> bool:
        nonlocal best_pairs, best_total, visited
        while i < n and used >> i & 1:
            i += 1
        if i == n:
            visited += 1
            if total > best_total:
                best_total = total
                best_pairs = chosen[:]
            return visited <= limit
        for j, w in partners[i]:
            if not used >> j & 1:
                chosen.append((i, j))
                going = walk(i + 1, used | 1 << i | 1 << j, total + w)
                chosen.pop()
                if not going:
                    return False
        return walk(i + 1, used | 1 << i, total)

    walk(0, 0, 0)
    # walk's closure holds walk itself: drop the name so the call leaves no
    # reference cycle behind
    del walk
    return best_pairs, best_total, visited
