#!/usr/bin/env bash
# The imbcal console script end to end, run in an empty working directory
# with an `imbcal` on PATH: gen, run on the feature file twice (the first
# run writes the parse cache, the second reads it and must give the same
# outputs), then a corrupted copy, then a config whose output_dir is a
# number, then one whose train.lr is NaN, one whose train.lr is -1 and one
# whose train.lr is 10**400 (each exits 2 naming train.lr, the last without
# echoing the digits), then one with the misspelt key methds, then an
# unknown imbalance kind and a val_fraction outside (0, 1),
# then a methods list with an entry that is not a string and one that lists
# a tag twice, then calibrate on a score file that is not UTF-8, mb with a
# class id that is not an integer, a counts file listing a class twice,
# counts files with a 400-digit count and with a 5000-digit one (past
# int()'s digit limit), counts files whose class id has 400 digits and 5000
# digits, mb with a 5000-digit --old id (each must exit with its code and a
# greppable message, print no traceback and not echo the long id), mb with a
# class both old and new, then feature and score CSVs with a 400-digit and a
# 5000-digit label, a manifest whose classes (10**25) is beyond int64 over a
# 20-digit label, and a counts file with a quoted field (each exits 3 with a
# greppable message and no traceback, and a long label is not echoed), then
# a config with a 5000-digit memory (exit 2) and a manifest with a
# 5000-digit classes (exit 3), each reported as invalid JSON without echoing
# the digits, and a synthetic table of 10**25 classes through run and gen
# (exit 2, refused before any data is drawn), and a synthetic table of 10**6
# classes x 100 rows x 1000 dims through run and gen, each in a subshell
# whose virtual memory is capped at 1.5 GB (exit 2 with "out of memory", no
# output), then configs with a 10**30 train.batch_size and a 10**30 memory
# under nem and bal (each exits 0 with empty stderr) and a 10**30 ece_bins
# (exit 2 naming ece_bins), none printing a traceback, then an iso run
# whose first state holds one class and a run on a feature file with a
# class of one train record (each exits 0 with empty stderr).
#
#   cd "$(mktemp -d)" && bash /path/to/tests/console_e2e.sh
set -eo pipefail
imbcal gen --classes 4 --dim 3 --per-class 30 --seed 1 --out feat.csv
cat > cfg.json <<'JSON'
{"num_states": 2, "memory": 8, "train": {"epochs": 3},
 "methods": ["none", "th", "mb"],
 "data": {"features": {"features_path": "feat.csv",
                       "manifest_path": "feat.csv.manifest.json"}}}
JSON
imbcal run --config cfg.json --out out
test -s out/summary.json
test -s feat.csv.cache.npz
imbcal run --config cfg.json --out out2
cmp out/states.csv out2/states.csv
cmp out/summary.json out2/summary.json
sed '5s/,[^,]*$/,oops/' feat.csv > bad.csv
cp feat.csv.manifest.json bad.csv.manifest.json
sed 's/feat\.csv/bad.csv/g' cfg.json > bad.json
status=0
imbcal run --config bad.json --out bad-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 3
grep -F 'bad.csv: line 5: non-numeric feature value' err.txt
sed 's/^{/{"output_dir": 5, /' cfg.json > num-out.json
status=0
imbcal run --config num-out.json 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F 'output_dir must be a JSON string' err.txt
if grep -F Traceback err.txt; then exit 1; fi
sed 's/"epochs": 3/"epochs": 3, "lr": NaN/' cfg.json > nan-lr.json
status=0
imbcal run --config nan-lr.json --out nan-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F 'train.lr must be finite' err.txt
if grep -F Traceback err.txt; then exit 1; fi
test ! -e nan-out
sed 's/"epochs": 3/"epochs": 3, "lr": -1/' cfg.json > neg-lr.json
status=0
imbcal run --config neg-lr.json --out neg-lr-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F 'train.lr must be > 0' err.txt
if grep -F Traceback err.txt; then exit 1; fi
test ! -e neg-lr-out
sed "s/\"epochs\": 3/\"epochs\": 3, \"lr\": 1$(python -c 'print("0" * 400)')/" cfg.json > huge-lr.json
status=0
imbcal run --config huge-lr.json --out huge-lr-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F 'train.lr is an integer too large to convert to float' err.txt
if grep -F 0000000000 err.txt; then exit 1; fi
if grep -F Traceback err.txt; then exit 1; fi
test ! -e huge-lr-out
sed 's/^{/{"methds": ["none"], /' cfg.json > typo.json
status=0
imbcal run --config typo.json --out typo-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F 'unknown config key methds' err.txt
if grep -F Traceback err.txt; then exit 1; fi
test ! -e typo-out
sed 's/^{/{"imbalance": "medium", /' cfg.json > medium.json
status=0
imbcal run --config medium.json --out medium-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F "imbalance must be one of none, soft, strong, got 'medium'" err.txt
if grep -F Traceback err.txt; then exit 1; fi
test ! -e medium-out
sed 's/^{/{"val_fraction": 1.5, /' cfg.json > frac.json
status=0
imbcal run --config frac.json --out frac-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F 'val_fraction must be in (0, 1), got 1.5' err.txt
if grep -F Traceback err.txt; then exit 1; fi
test ! -e frac-out
sed 's/"methods": \[[^]]*\]/"methods": ["iso", 1]/' cfg.json > int-tag.json
status=0
imbcal run --config int-tag.json --out int-tag-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F 'methods entries must be JSON strings, got 1' err.txt
if grep -F Traceback err.txt; then exit 1; fi
test ! -e int-tag-out
sed 's/"methods": \[[^]]*\]/"methods": ["none", "th", "th"]/' cfg.json > twice-tag.json
status=0
imbcal run --config twice-tag.json --out twice-tag-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F 'methods lists th twice' err.txt
if grep -F Traceback err.txt; then exit 1; fi
test ! -e twice-tag-out
printf 'label,s0,s1\n0,2.0,1.0\n1,1.0,2.\xff\n' > latin.csv
status=0
imbcal calibrate --method iso --scores latin.csv 2> err.txt || status=$?
cat err.txt
test "$status" -eq 3
grep -F 'latin.csv: line 3: not valid UTF-8' err.txt
printf 'label,s0,s1\n0,2.0,1.0\n1,1.0,2.0\n' > s.csv
status=0
imbcal calibrate --method mb --scores s.csv --old a --new 1 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F -- '--old: class ids must be comma-separated integers' err.txt
if grep -F Traceback err.txt; then exit 1; fi
printf '0,5\n1,3\n0,9\n' > twice.csv
status=0
imbcal calibrate --method th --scores s.csv --counts twice.csv 2> err.txt || status=$?
cat err.txt
test "$status" -eq 3
grep -F 'twice.csv: line 3: class 0 listed twice' err.txt
if grep -F Traceback err.txt; then exit 1; fi
python -c 'print("0,5\n1," + "9" * 400)' > huge.csv
status=0
imbcal calibrate --method th --scores s.csv --counts huge.csv 2> err.txt || status=$?
cat err.txt
test "$status" -eq 3
grep -F 'huge.csv: line 2: count too large for a float' err.txt
if grep -F Traceback err.txt; then exit 1; fi
python -c 'print("0,5\n1," + "9" * 5000)' > huger.csv
status=0
imbcal calibrate --method th --scores s.csv --counts huger.csv 2> err.txt || status=$?
cat err.txt
test "$status" -eq 3
grep -F 'huger.csv: line 2: count too large for a float' err.txt
if grep -F Traceback err.txt; then exit 1; fi
for digits in 400 5000; do
  python -c "print('0,5\\n' + '9' * $digits + ',3')" > "id$digits.csv"
  status=0
  imbcal calibrate --method th --scores s.csv --counts "id$digits.csv" 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 3
  grep -F "id$digits.csv: line 2: class id out of range, too many digits" err.txt
  if grep -F Traceback err.txt; then exit 1; fi
  if grep -F 99999999999999999999 err.txt; then exit 1; fi
done
status=0
imbcal calibrate --method mb --scores s.csv --old "$(python -c 'print("9" * 5000)')" --new 1 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F -- '--old: class id out of range' err.txt
if grep -F Traceback err.txt; then exit 1; fi
if grep -F 99999999999999999999 err.txt; then exit 1; fi
printf 'label,s0,s1,s2\n0,2.0,1.0,0.5\n1,1.0,2.0,0.5\n2,0.5,1.0,2.0\n' > s3.csv
status=0
imbcal calibrate --method mb --scores s3.csv --old 0,1 --new 1,2 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F -- '--old and --new share class 1' err.txt
if grep -F Traceback err.txt; then exit 1; fi
for digits in 400 5000; do
  python -c "print('9' * $digits)" > label.txt
  sed "5s/^[0-9]*,/$(cat label.txt),/" feat.csv > "label$digits.csv"
  cp feat.csv.manifest.json "label$digits.csv.manifest.json"
  sed "s/feat\.csv/label$digits.csv/g" cfg.json > "label$digits.json"
  status=0
  imbcal run --config "label$digits.json" --out "label$digits-out" 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 3
  grep -F "label$digits.csv: line 5: label out of [0, 4), too many digits" err.txt
  if grep -F Traceback err.txt; then exit 1; fi
  if grep -F 99999999999999999999 err.txt; then exit 1; fi
  printf 'label,s0,s1\n0,2.0,1.0\n%s,1.0,2.0\n' "$(cat label.txt)" > "slabel$digits.csv"
  status=0
  imbcal calibrate --method iso --scores "slabel$digits.csv" 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 3
  grep -F "slabel$digits.csv: line 3: label out of [0, 2), too many digits" err.txt
  if grep -F Traceback err.txt; then exit 1; fi
  if grep -F 99999999999999999999 err.txt; then exit 1; fi
done
sed "5s/^[0-9]*,/99999999999999999999,/" feat.csv > wide.csv
python -c 'import json; m = json.load(open("feat.csv.manifest.json")); m["classes"] = 10**25; print(json.dumps(m))' > wide.csv.manifest.json
sed 's/feat\.csv/wide.csv/g' cfg.json > wide.json
status=0
imbcal run --config wide.json --out wide-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 3
grep -F "wide.csv.manifest.json: manifest key 'classes' must be below 2**63" err.txt
if grep -F Traceback err.txt; then exit 1; fi
test ! -e wide-out
printf '0,5\n"1",3\n' > quoted.csv
status=0
imbcal calibrate --method th --scores s.csv --counts quoted.csv 2> err.txt || status=$?
cat err.txt
test "$status" -eq 3
grep -F 'quoted.csv: line 2: non-integer value' err.txt
if grep -F Traceback err.txt; then exit 1; fi
python -c 'print("{\"num_states\": 2, \"memory\": " + "9" * 5000 + "}")' > digits.json
status=0
imbcal run --config digits.json --out digits-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F 'digits.json: invalid JSON (' err.txt
if grep -F Traceback err.txt; then exit 1; fi
if grep -F 99999999999999999999 err.txt; then exit 1; fi
test ! -e digits-out
python -c 'import json; m = json.load(open("feat.csv.manifest.json")); print(json.dumps(m).replace("\"classes\": 4", "\"classes\": " + "9" * 5000))' > digits.csv.manifest.json
grep -F 99999999999999999999 digits.csv.manifest.json > /dev/null
cp feat.csv digits.csv
sed 's/feat\.csv/digits.csv/g' cfg.json > digits-manifest.json
status=0
imbcal run --config digits-manifest.json --out digits-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 3
grep -F 'digits.csv.manifest.json: invalid JSON (' err.txt
if grep -F Traceback err.txt; then exit 1; fi
if grep -F 99999999999999999999 err.txt; then exit 1; fi
test ! -e digits-out
sed 's/"features": {.*$/"synthetic": {"classes": 10000000000000000000000000, "dim": 3, "per_class": 15}}}/; /manifest_path/d' cfg.json > too-big.json
cat too-big.json
status=0
imbcal run --config too-big.json --out too-big-out 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F "float64 values exceed numpy's largest array" err.txt
if grep -F Traceback err.txt; then exit 1; fi
test ! -e too-big-out
status=0
imbcal gen --classes 10000000000000000000000000 --dim 3 --per-class 15 --seed 1 --out too-big.csv 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F "float64 values exceed numpy's largest array" err.txt
if grep -F Traceback err.txt; then exit 1; fi
test ! -e too-big.csv
cat > oom.json <<'JSON'
{"num_states": 2, "memory": 1000000, "methods": ["none"],
 "data": {"synthetic": {"classes": 1000000, "dim": 1000, "per_class": 100}}}
JSON
status=0
(ulimit -v 1500000; imbcal run --config oom.json --out oom-out) 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F 'error: out of memory: ' err.txt
if grep -F Traceback err.txt; then exit 1; fi
test ! -e oom-out
status=0
(ulimit -v 1500000; imbcal gen --classes 1000000 --dim 1000 --per-class 100 --seed 1 --out oom.csv) 2> err.txt || status=$?
cat err.txt
test "$status" -eq 2
grep -F 'error: out of memory: ' err.txt
if grep -F Traceback err.txt; then exit 1; fi
test ! -e oom.csv
test ! -e oom.csv.manifest.json
for key in batch_size memory ece_bins; do
  python -c 'import json, sys; cfg = json.load(open("cfg.json")); key = sys.argv[1]
(cfg["train"] if key == "batch_size" else cfg)[key] = 10**30
cfg["methods"] = ["none", "nem", "bal"]; print(json.dumps(cfg))' "$key" > "huge-$key.json"
  status=0
  imbcal run --config "huge-$key.json" --out "huge-$key-out" 2> err.txt || status=$?
  cat err.txt
  if grep -F Traceback err.txt; then exit 1; fi
  if [ "$key" = ece_bins ]; then
    test "$status" -eq 2
    grep -F 'error: ece_bins must be at most 2**62' err.txt
    test ! -e "huge-$key-out"
  else
    test "$status" -eq 0
    test ! -s err.txt
    test -s "huge-$key-out/states.csv"
  fi
done
sed 's/"num_states": 2/"num_states": 4/; s/"methods": \[[^]]*\]/"methods": ["none", "iso"]/' cfg.json > iso-one.json
imbcal run --config iso-one.json --out iso-one-out 2> err.txt
cat err.txt
test ! -s err.txt
awk -F, 'NR == 1 || $1 != 3 || $2 != "train" || !kept++' feat.csv > one.csv
test "$(grep -c '^3,train,' one.csv)" -eq 1
cp feat.csv.manifest.json one.csv.manifest.json
sed 's/feat\.csv/one.csv/g' cfg.json > one.json
imbcal run --config one.json --out one-out 2> err.txt
cat err.txt
test ! -s err.txt
