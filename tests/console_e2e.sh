#!/usr/bin/env bash
# The imbcal console script end to end, run in an empty working directory
# with an `imbcal` on PATH: gen, run on the feature file twice (the first
# run writes the parse cache, the second reads it and must give the same
# outputs), then a corrupted copy, then a config whose output_dir is a
# number, then one whose train.lr is NaN, then one with the misspelt key
# methds, then an unknown imbalance kind and a val_fraction outside (0, 1),
# then calibrate on a score file that is not UTF-8, mb with a class id that
# is not an integer, a counts file listing a class twice, counts files with
# a 400-digit count and with a 5000-digit one (past int()'s digit limit),
# counts files whose class id has 400 digits and 5000 digits, mb with a
# 5000-digit --old id (each must exit with its code and a greppable message,
# print no traceback and not echo the long id), mb with a class both old and
# new, then feature and score CSVs with a 400-digit and a 5000-digit label,
# and a counts file with a quoted field (each exits 3 with a greppable
# message and no traceback, and a long label is not echoed).
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
printf '0,5\n"1",3\n' > quoted.csv
status=0
imbcal calibrate --method th --scores s.csv --counts quoted.csv 2> err.txt || status=$?
cat err.txt
test "$status" -eq 3
grep -F 'quoted.csv: line 2: non-integer value' err.txt
if grep -F Traceback err.txt; then exit 1; fi
