#!/usr/bin/env bash
# Structural vectorization proof for the lane kernels (DESIGN.md §11).
#
#   ./scripts/asm_check.sh                  # assert lane_axpy8 and tile_mac vectorize
#   ./scripts/asm_check.sh --negative-smoke # assert the check CAN fail (seq_dot)
#
# The lane layer's kernels — the GEMM microkernel
# (`snapea_tensor::lane::lane_axpy8`) and the window walk's tile MAC
# (`snapea_tensor::lane::tile_mac`) — are `#[inline(never)]` and
# non-generic precisely so their machine code survives as standalone
# symbols in the release rlib. This script disassembles the newest
# `libsnapea_tensor` rlib and asserts that each body contains packed vector
# float ops and zero scalar float multiplies — a structural proof that the
# compiler vectorized the eight-wide loops, immune to benchmark noise.
#
# The window walk multiplies a tile of windows (im2col columns) by one
# broadcast weight per walk position, so every MAC of it runs in
# `tile_mac`; a tile is padded to a multiple of eight columns, so the
# kernel has no scalar tail.
#
# The negative smoke runs the same assertion against `seq_dot` — a
# deliberately sequential scalar reduction (its loop-carried dependency
# forbids vectorization) — and demands that it FAILS, proving the patterns
# actually discriminate (same prove-it-can-fail protocol as the lint and
# selfcheck smokes in check.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

NEGATIVE=0
if [ "${1:-}" = "--negative-smoke" ]; then
  NEGATIVE=1
fi

if ! command -v objdump > /dev/null 2>&1; then
  echo "SKIP: objdump not available; cannot verify vectorization"
  exit 0
fi

RLIB=$(ls -t target/release/deps/libsnapea_tensor-*.rlib 2> /dev/null | head -n 1)
if [ -z "$RLIB" ]; then
  echo "ERROR: no libsnapea_tensor rlib under target/release/deps; run cargo build --release first"
  exit 1
fi

# Arch-gated instruction patterns. VEC must appear >= 1 time per kernel;
# SCALAR must appear 0 times (a single scalar multiply in the loop body
# means the reduction fell back to scalar code).
ARCH=$(uname -m)
case "$ARCH" in
  x86_64)
    VEC='(v?)mulps|vfmadd[0-9]*ps|(v?)addps'
    SCALAR='mulss'
    ;;
  aarch64 | arm64)
    VEC='fmla[[:space:]]+v|fmul[[:space:]]+v|fadd[[:space:]]+v'
    SCALAR='fmul[[:space:]]+s[0-9]'
    ;;
  *)
    echo "SKIP: no patterns for architecture $ARCH"
    exit 0
    ;;
esac

DISASM=$(mktemp)
trap 'rm -f "$DISASM"' EXIT
objdump -d "$RLIB" > "$DISASM"

# Prints the disassembly of the symbol whose mangled name matches the
# fragment (`4lane` scopes to the lane module; the literal `17h` that
# precedes the symbol hash keeps a name from also matching a longer one).
extract() {
  awk -v pat="$1" '
    /^[0-9a-f]+ <.*>:$/ { insym = ($0 ~ pat) }
    insym { print }
  ' "$DISASM"
}

# check_kernel <name> <symbol regex> <expect: pass|fail>
check_kernel() {
  local name=$1 pat=$2 expect=$3
  local body vec scalar verdict
  body=$(extract "$pat")
  if [ -z "$body" ]; then
    echo "ERROR: symbol for $name not found in $RLIB"
    return 1
  fi
  vec=$(printf '%s\n' "$body" | grep -cE "$VEC" || true)
  scalar=$(printf '%s\n' "$body" | grep -cE "$SCALAR" || true)
  if [ "$vec" -ge 1 ] && [ "$scalar" -eq 0 ]; then
    verdict=pass
  else
    verdict=fail
  fi
  if [ "$verdict" != "$expect" ]; then
    echo "ERROR: $name: $vec vector op(s), $scalar scalar multiply(ies) — expected to $expect"
    return 1
  fi
  echo "    $name: $vec vector op(s), $scalar scalar multiply(ies) ($verdict, as expected)"
}

if [ "$NEGATIVE" -eq 1 ]; then
  # seq_dot is a plain sequential reduction: it must FAIL the vectorization
  # assertion, or the patterns prove nothing.
  echo "==> asm negative smoke: seq_dot must not pass the vector gate"
  check_kernel seq_dot '4lane.*seq_dot17h' fail
  exit 0
fi

echo "==> asm vectorization gate on $RLIB ($ARCH)"
check_kernel lane_axpy8 '4lane.*lane_axpy817h' pass
check_kernel tile_mac '4lane.*tile_mac17h' pass
echo "OK: lane_axpy8 and tile_mac carry packed vector float ops and no scalar multiplies"
