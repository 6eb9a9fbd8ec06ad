# Sourced by run.sh and aa.sh: where the checkout and its build directory are,
# and an environment for the go command that reads and writes nothing outside
# the checkout (its caches and its configuration directory go to .bench_build/).
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build"

# bnbench pins the runtime settings itself; unsetting them here keeps them
# from reaching the go command as well.
unset GODEBUG GOGC GOMAXPROCS GOMEMLIMIT GOFLAGS GOEXPERIMENT
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

# build_tool NAME builds benchmarks/NAME into .bench_build/NAME.
build_tool() {
	(cd "$here" && go build -o "$build/$1" "./$1")
}
