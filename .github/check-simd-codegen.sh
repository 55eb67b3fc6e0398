#!/bin/sh
# Nothing but the compiler decides how wide each copy of a `dlrm_model::simd`
# body is, so check what it decided: in BINARY (default target/release/updlrm)
# every primitive's `avx512` copy must use a zmm register and its `avx2` copy a
# ymm register and no zmm. Prints the operand-line counts; exits 1 on a miss.
set -eu
objdump -d -C --no-show-raw-insn "${1:-target/release/updlrm}" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    gsub(/::<[^>]*>/, "")  # generic arguments, where the mangling keeps them
    sym = match($0, /dlrm_model::simd::[a-z0-9_]+::avx(2|512)/) ? substr($0, RSTART + 18, RLENGTH - 18) : ""
    next
  }
  sym != "" && /%zmm[0-9]/ { zmm[sym]++ }
  sym != "" && /%ymm[0-9]/ { ymm[sym]++ }
  END {
    n = split("add_assign add_assign_le add_assign_into_le add_assign_dequant_u8 sum_rows_le sum_rows_tagged_le gemm", name)
    for (i = 1; i <= n; i++) {
      wide = name[i] "::avx512"; half = name[i] "::avx2"
      printf "%-22s avx512: %3d zmm   avx2: %3d ymm, %d zmm\n", name[i], zmm[wide], ymm[half], zmm[half]
      if (!zmm[wide] || !ymm[half] || zmm[half]) { print "  ^ not the width its tier names"; bad = 1 }
    }
    exit bad
  }'
