# The console entry point on every command; run with `bash -e` from the
# repository root after installing the package.
lie-ncg verify
lie-ncg verify --scope enumerate --n 3 --q 3
lie-ncg enumerate --n 3 --q 2 --q 3
lie-ncg analyze specs/split_pairs_f2.json --format json
lie-ncg analyze specs/heisenberg_f4.json --format json
lie-ncg compare specs/heisenberg_f5.json specs/heisenberg_f5.json
lie-ncg compare specs/aff1_f3.json specs/aff1_f3.json
lie-ncg compare specs/split_pairs_f2.json specs/split_pairs_f2.json
lie-ncg compare specs/heisenberg_f2.json specs/l2_f2.json
lie-ncg compare specs/aff1_f3.json specs/heisenberg_f2.json
lie-ncg verify --scope enumerate --n 2 --q 3
lie-ncg analyze specs/heisenberg_f5.json --format json
lie-ncg validate specs/l2_f2.json
lie-ncg export specs/split_pairs_f2.json --out graphml
# must exit 1; keep it last: bash -e ignores a "!" command's status, so only
# the script's final status catches an unexpected exit 0
! lie-ncg verify --scope enumerate --n 1 --q 2
