#!/bin/sh
# Grep guard against polymorphic compare / hash creeping back into the
# hot-path libraries (DESIGN.md §17). The structural fallbacks
# (caml_compare / caml_hash) walk heap blocks per call and have twice
# been the dominant cost in a profile (Games.Dist, Step.state_hash,
# the engine's profile table); after each audit we pin the fix here.
#
# Scope: lib/engine, lib/store, lib/wire, lib/mpc, lib/agreement — the
# per-session / per-record hot paths and the MPC receive path under
# them. Checks:
#   1. no bare `compare` passed as a function (use Int.compare /
#      String.compare / a monomorphic cmp);
#   2. no Stdlib.compare / Stdlib.( = ) / Hashtbl.hash;
#   3. no direct generic Hashtbl use (Hashtbl.create/find/replace/...)
#      — use a Hashtbl.Make functor instance keyed monomorphically.
#      (Hashtbl.Make itself and Hashtbl.hash_param in explicitly
#      deep-digest code are allowed.)
#   4. no polymorphic (in)equality against an option constructor
#      (`x = Some true`, `x <> None`, `... && x = None`) — match on the
#      option or use Option.is_some / Option.is_none.
#
# Exemption: Agreement.Coin.common's seeded Hashtbl.hash. It defines the
# value of every common coin (which round a vote decides in), so any
# other hash would change every cheap-talk history and every digest
# pinned on one; it runs once per ABA round past the second, not per
# message.
set -eu
cd "$(dirname "$0")/.."

dirs="lib/engine lib/store lib/wire lib/mpc lib/agreement"
coin_exemption='^lib/agreement/coin\.ml:[0-9]+:let common ~seed ~instance ~round = Hashtbl\.hash \(seed, instance, round, "coin"\)'

fail=0
scan() {
    pattern="$1"; msg="$2"
    # strip OCaml comment lines to keep docs free to mention the names
    hits=$(grep -rnE "$pattern" $dirs --include='*.ml' \
        | grep -vE '^\s*[^:]*:[0-9]+:\s*\(\*' | grep -vE '\(\*.*\*\)\s*$' \
        | grep -vE "$coin_exemption" || true)
    if [ -n "$hits" ]; then
        echo "poly-compare guard: $msg" >&2
        echo "$hits" >&2
        fail=1
    fi
}

scan '(^|[^.A-Za-z_])compare[[:space:]]*\)|List\.sort[[:space:]]+compare|Array\.sort[[:space:]]+compare|\(compare\)' \
    'bare polymorphic `compare` used as a function'
scan 'Stdlib\.compare|Stdlib\.\(=\)|Hashtbl\.hash[^_]' \
    'Stdlib.compare / polymorphic Hashtbl.hash'
scan 'Hashtbl\.(create|add|find|find_opt|replace|remove|mem|iter|fold|length|reset|clear)[[:space:]]' \
    'generic Hashtbl operations on a hot path (use Hashtbl.Make keyed monomorphically)'
scan '<>[[:space:]]*(Some|None)([^A-Za-z_]|$)|=[[:space:]]*Some[[:space:]]+(true|false)([^A-Za-z_]|$)|\)[[:space:]]*=[[:space:]]*(Some|None)([^A-Za-z_]|$)|(if|&&|\|\||not)[[:space:]]+[A-Za-z_.'"'"']+[[:space:]]*=[[:space:]]*(Some|None)([^A-Za-z_]|$)' \
    'polymorphic equality against an option constructor (match on it, or Option.is_some/is_none)'

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "poly-compare guard: $dirs clean (exempt: Agreement.Coin.common's seeded hash)"
