# The console entry point on every command; run with `bash -e` from the
# repository root after installing the package.

# Runs a command that must be refused: exit status 1 and exactly one line of
# output.  A traceback also exits 1, so the status alone cannot tell a crash
# from a refusal.
refused() {
  local out status=0
  out=$("$@" 2>&1) || status=$?
  if [ "$status" -ne 1 ] || [ -z "$out" ] || [ "$(printf '%s\n' "$out" | wc -l)" -ne 1 ]; then
    printf 'expected a one-line refusal (exit %s) from: %s\n%s\n' "$status" "$*" "$out" >&2
    return 1
  fi
}

lie-ncg verify
lie-ncg verify --scope enumerate --n 3 --q 3
out=$(mktemp)
# the same run as JSON lines, byte for byte against its golden
timeout 10 lie-ncg verify --scope enumerate --n 3 --q 3 --format json > "$out"
diff "$out" tests/golden/verify_enumerate_n3_q3.jsonl
# and the two other shapes with a golden, (3, 2) and (2, 3)
timeout 10 lie-ncg verify --scope enumerate --n 3 --q 2 --format json > "$out"
diff "$out" tests/golden/verify_enumerate_n3_q2.jsonl
timeout 10 lie-ncg verify --scope enumerate --n 2 --q 3 --format json > "$out"
diff "$out" tests/golden/verify_enumerate_n2_q3.jsonl
# the orbit tables, byte for byte against their goldens
timeout 10 lie-ncg enumerate --n 3 --q 2 --q 3 > "$out"
cat "$out"
diff "$out" tests/golden/enumerate_n3_q2_q3.json
timeout 10 lie-ncg enumerate --n 3 > "$out"
diff "$out" tests/golden/enumerate_n3_q2.json
rm -f "$out"
lie-ncg analyze specs/split_pairs_f2.json --format json
lie-ncg analyze specs/heisenberg_f4.json --format json
lie-ncg compare specs/heisenberg_f5.json specs/heisenberg_f5.json
lie-ncg compare specs/aff1_f3.json specs/aff1_f3.json
lie-ncg compare specs/split_pairs_f2.json specs/split_pairs_f2.json
lie-ncg compare specs/split_pairs_f2.json specs/split_pairs_f2_basis.json
lie-ncg compare specs/heisenberg_f2.json specs/l2_f2.json
lie-ncg compare specs/aff1_f3.json specs/heisenberg_f2.json
lie-ncg verify --scope enumerate --n 2 --q 3
# Runs one statement alone as `lie-ncg verify ... --statement ID` and checks
# its output against that statement's line of a golden.
alone() {
  local golden=$1 id=$2 want got
  shift 2
  want=$(grep -F "\"statement_id\": \"$id\"" "$golden")
  got=$(lie-ncg verify "$@" --statement "$id" --format json)
  if [ "$got" != "$want" ]; then
    printf 'verify %s --statement %s differs from its golden line\n%s\n' "$*" "$id" "$got" >&2
    return 1
  fi
}
# each statement alone gives its line of the catalog golden and of the
# (3, 2) enumeration golden, so no row depends on a fact that another row
# computed first, on its own algebra or on another algebra of its
# centralizer family, which shares the graph's facts
for id in $(python -c 'from lie_ncg.verifier import STATEMENT_IDS; print(*STATEMENT_IDS)'); do
  alone tests/golden/verify.jsonl "$id"
  alone tests/golden/verify_enumerate_n3_q2.jsonl "$id" --scope enumerate --n 3 --q 2
done
lie-ncg analyze specs/heisenberg_f5.json --format json
lie-ncg validate specs/l2_f2.json
lie-ncg export specs/split_pairs_f2.json --out graphml
refused lie-ncg verify --scope enumerate --n 1 --q 2
refused lie-ncg verify --scope enumerate --n 4 --q 2
refused lie-ncg verify --scope enumerate --n 3 --q 4
refused lie-ncg verify --n 99 --q 1000 --statement Lem2.3
refused lie-ncg enumerate --n 1
refused lie-ncg enumerate --n 3 --q 4
# q has 5000 digits, past the interpreter's int-string digit limit
spec=$(mktemp)
printf '{"q": %s, "dim": 1, "basis": ["x"], "brackets": []}\n' \
  "$(head -c 5000 /dev/zero | tr '\0' 7)" > "$spec"
refused lie-ncg validate "$spec"
rm -f "$spec"
# a basis name holding a lone surrogate, which the DOT and GraphML exports
# cannot encode as UTF-8
spec=$(mktemp)
printf '{"q": 2, "dim": 2, "basis": ["x", "%s"], "brackets": []}\n' '\ud800' > "$spec"
refused lie-ncg validate "$spec"
rm -f "$spec"
# Heisenberg over F_9 (720 vertices): each line {cx : c != 0} has eight
# nonzero multiples, where the shipped specs reach at most four (over F_5)
spec=$(mktemp)
out=$(mktemp)
printf '{"q": 9, "dim": 3, "basis": ["x", "y", "z"], "brackets": [%s]}\n' \
  '{"left": "x", "right": "y", "value": {"z": 1}}' > "$spec"
lie-ncg analyze "$spec" --format json > "$out"
python -c 'import json, sys; g = json.load(open(sys.argv[1]))["graph"]; sys.exit(g["vertex_count"] != 720 or g["edge_count"] != 233280)' "$out"
lie-ncg export "$spec" --out json > "$out"
python -c 'import json, sys; g = json.load(open(sys.argv[1])); sys.exit(g["vertex_count"] != 720 or len(g["edges"]) != 233280)' "$out"
# its 10 twin classes of 72 vertices each share one row, read once per
# class by the exports; the SHA-256 of each format pins every edge's place
for pin in \
  dot:9eb2c6c4085a1a73ee941172892b3743fb6e144196f4177aa8def255a2ec9e78 \
  graphml:8a31cf1dc3fc192e51d658eda9c0bb59b86ab3f5d840b2dff955772c5a4f9fa5 \
  json:ebc65e8a0af872011706e2fc68753f0e18ea7e177a5adc08a0dfe3c53e53b734; do
  got=$(lie-ncg export "$spec" --out "${pin%%:*}" | sha256sum | cut -d' ' -f1)
  if [ "$got" != "${pin#*:}" ]; then
    printf 'export --out %s of Heisenberg over F_9 has SHA-256 %s\n' "${pin%%:*}" "$got" >&2
    exit 1
  fi
done
rm -f "$spec" "$out"
# [u, v] = 2u + v over F_3, aff1 in another basis: its degree shape makes
# compare ask algebras_equivalent, which closes aff1's orbit and finds this
# other tensor in it
spec=$(mktemp)
out=$(mktemp)
printf '{"q": 3, "dim": 2, "basis": ["u", "v"], "brackets": [%s]}\n' \
  '{"left": "u", "right": "v", "value": {"u": 2, "v": 1}}' > "$spec"
lie-ncg compare specs/aff1_f3.json "$spec" > "$out"
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["consequence_failures"] != [])' "$out"
rm -f "$spec" "$out"
# aff1 summed twice over F_3 (80 vertices, not complete multipartite): a
# pair the vertex-count, degree and shape screen cannot tell apart needs the
# canonical search, capped at 64 vertices (ISO_CAP), and a pair it can is
# answered without one
spec=$(mktemp)
out=$(mktemp)
printf '{"q": 3, "dim": 4, "basis": ["a", "b", "c", "d"], "brackets": [%s, %s]}\n' \
  '{"left": "a", "right": "b", "value": {"a": 1}}' \
  '{"left": "c", "right": "d", "value": {"c": 1}}' > "$spec"
refused lie-ncg compare "$spec" "$spec"
lie-ncg compare "$spec" specs/heisenberg_f2.json > "$out"
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["isomorphic"] is not False)' "$out"
rm -f "$spec" "$out"
# aff1 summed 3 times over F_2 (63 vertices, just under ISO_CAP, every row
# distinct): the canonical search, pruned by automorphism orbits, labels it.
# Compared with itself, the second graph's certificate is cached; with its
# basis listed in another order, the second graph has other rows, so the
# search runs again with the first graph's code as its target.  The SHA-256
# pins the witness that search finds.
spec=$(mktemp)
other=$(mktemp)
out=$(mktemp)
# the spec with its basis listed in the order given
aff1_3() {
  printf '{"q": 2, "dim": 6, "basis": [%s], "brackets": [%s, %s, %s]}\n' "$1" \
    '{"left": "x1", "right": "y1", "value": {"y1": 1}}' \
    '{"left": "x2", "right": "y2", "value": {"y2": 1}}' \
    '{"left": "x3", "right": "y3", "value": {"y3": 1}}'
}
aff1_3 '"x1", "y1", "x2", "y2", "x3", "y3"' > "$spec"
aff1_3 '"y3", "x2", "x1", "y1", "x3", "y2"' > "$other"
timeout 10 lie-ncg compare "$spec" "$spec" > "$out"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(r["isomorphic"] is not True or r["consequence_failures"] != [])' "$out"
timeout 10 lie-ncg compare "$spec" "$other" > "$out"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(r["isomorphic"] is not True or r["consequence_failures"] != [])' "$out"
got=$(sha256sum < "$out" | cut -d' ' -f1)
if [ "$got" != 2b22f2458361f9c7d28fabf6d1c8a636c9dbfd3a5e89e6fd9286260bfd4cb83e ]; then
  printf 'compare of aff1^3 over F_2 in two bases has SHA-256 %s\n' "$got" >&2
  exit 1
fi
rm -f "$spec" "$other" "$out"
# aff1 summed 6 times over F_2 (4095 vertices, every row distinct) at the
# default element cap: the diameter is one AND of two rows per non-adjacent
# pair, where a breadth-first search from every vertex took 5.6 s
spec=$(mktemp)
out=$(mktemp)
printf '{"q": 2, "dim": 12, "basis": [%s], "brackets": [%s, %s, %s, %s, %s, %s]}\n' \
  '"x1", "y1", "x2", "y2", "x3", "y3", "x4", "y4", "x5", "y5", "x6", "y6"' \
  '{"left": "x1", "right": "y1", "value": {"y1": 1}}' \
  '{"left": "x2", "right": "y2", "value": {"y2": 1}}' \
  '{"left": "x3", "right": "y3", "value": {"y3": 1}}' \
  '{"left": "x4", "right": "y4", "value": {"y4": 1}}' \
  '{"left": "x5", "right": "y5", "value": {"y5": 1}}' \
  '{"left": "x6", "right": "y6", "value": {"y6": 1}}' > "$spec"
timeout 3 lie-ncg analyze "$spec" --format json > "$out"
python -c 'import json, sys; g = json.load(open(sys.argv[1]))["graph"]; sys.exit(g["vertex_count"] != 4095 or g["diameter"] != 2)' "$out"
rm -f "$spec" "$out"
# Heisenberg over F_16 (4080 vertices) at the default element cap: compare
# labels both graphs by their parts and re-checks the witness on one row per
# distinct row pair
spec=$(mktemp)
out=$(mktemp)
printf '{"q": 16, "dim": 3, "basis": ["x", "y", "z"], "brackets": [%s]}\n' \
  '{"left": "x", "right": "y", "value": {"z": 1}}' > "$spec"
timeout 60 lie-ncg compare "$spec" "$spec" > "$out"
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["isomorphic"] is not True)' "$out"
# Heisenberg over F_27 (19,656 vertices, 28 twin classes) past the default
# cap: the 10 s bound catches a witness check of one row per vertex (13 s)
printf '{"q": 27, "dim": 3, "basis": ["x", "y", "z"], "brackets": [%s]}\n' \
  '{"left": "x", "right": "y", "value": {"z": 1}}' > "$spec"
LIE_NCG_CAP=20000 timeout 10 lie-ncg compare "$spec" "$spec" > "$out"
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["isomorphic"] is not True)' "$out"
rm -f "$spec" "$out"
