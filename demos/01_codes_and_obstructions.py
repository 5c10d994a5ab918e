"""Tour of the combinatorial layer: codes, links, violators, obstructions.

Run with:  python3 demos/01_codes_and_obstructions.py
"""

from convexcodes import (
    Code,
    classify_completeness,
    intersection_completion,
    link,
    local_obstructions,
    maximal_codewords,
    nonlocal_obstructions,
    simplicial_complex,
    simplicial_violators,
    word_label,
    word_mask,
)


def show(code, label):
    print(f"{label}: " + " ".join(code.labels()))


# A code is a set of firing patterns.  This one comes from four ellipses in
# the plane; the word 13 is a face of its complex but never fires.
c = Code.from_compact(4, "0 2 3 12 23 34 123")
show(c, "code")
k = simplicial_complex(c)
print("facets:", " ".join(word_label(f, 4) for f in sorted(k.facets)))
print(
    "violators:",
    " ".join(word_label(v, 4) for v in sorted(simplicial_violators(c))),
)
print()

# The link of a code at a word.  Links of convex codes inherit convexity,
# which is what the local obstruction test exploits.
c2 = Code.from_compact(4, "0 1 2 3 4 123 124")
show(link(c2, word_mask([1, 2])), "link of {0,1,2,3,4,123,124} at 12")

# That link is two isolated points, so the missing word 12 certifies that
# no open or closed convex cover can realize the code.
scan = local_obstructions(c2)
for obs in scan.found:
    print(
        f"local obstruction at {word_label(obs.sigma, 4)}: "
        f"link complex has reduced Betti {obs.verdict.betti} in degree {obs.verdict.degree}"
    )
print()

# A non-local obstruction: two subsets that each meet every codeword, whose
# restricted complexes have different homology.
c3 = Code.from_compact(4, "23 14 123")
for obs in nonlocal_obstructions(c3)[:2]:
    print(
        f"non-local obstruction: {word_label(obs.sigma1, 4)} vs "
        f"{word_label(obs.sigma2, 4)}  profiles {obs.profile1} vs {obs.profile2}"
    )
print("(the same code also has a local obstruction at 1:",
      [word_label(o.sigma, 4) for o in local_obstructions(c3).found], ")")
print()

# Completeness classification drives the realization pipeline.
c4 = Code.from_compact(6, "123 126 156 456 345 234 12 16 56 45 34 23 0")
rep = classify_completeness(c4)
print("six-neuron code: max intersection-complete?", rep.max_intersection_complete)
m = Code(6, maximal_codewords(c4))
show(intersection_completion(m), "completion of its maximal words")
