// Package hot is the hotalloc fixture: //hhgb:noalloc-marked functions
// must be free of static allocation sites, unmarked functions may do
// anything. Each flagged line carries a `// want` marker; the clean lines
// double as the negative fixtures for the allowed idioms (self-append,
// value composite literals, interface-to-interface forwarding).
package hot

import "fmt"

type entry struct{ K, V uint64 }

type staging struct {
	rows []uint64
	tmp  entry
}

//hhgb:noalloc
func (s *staging) stage(rows []uint64) {
	s.rows = append(s.rows, rows...) // self-append: amortized reuse, allowed
	s.tmp = entry{K: 1, V: 2}        // value composite literal: allowed
	fresh := make([]uint64, 8)       // want `make in a //hhgb:noalloc function`
	_ = fresh
	boxed := new(entry) // want `new in a //hhgb:noalloc function`
	_ = boxed
	escaped := &entry{K: 3} // want `heap-escaping &composite literal`
	_ = escaped
	grown := append(rows, 9) // want `append result assigned to a different variable`
	_ = grown
	fmt.Println(rows[0]) // want `concrete uint64 boxed into interface parameter`
}

//hhgb:noalloc
func closures(run func()) {
	run()                        // calling a func parameter is fine
	deferred := func() { run() } // want `closure in a //hhgb:noalloc function`
	deferred()
}

//hhgb:noalloc
func forwardErr(err error) error {
	return describe(err) // interface-to-interface: no boxing, allowed
}

func describe(err error) error { return err }

// fold is the shape of the marked read kernels: generic, cursors in a stack
// array, a caller-supplied visitor. The directive reaches type-parameterised
// bodies like any other.
//
//hhgb:noalloc
func fold[T any](parts [][]T, visit func(T)) {
	var stack [4][]T
	heads := stack[:0]              // slicing a stack array: allowed
	heads = append(heads, parts...) // self-append: allowed
	for _, h := range heads {
		for _, x := range h {
			visit(x) // calling the visitor is fine
		}
	}
	spill := make([][]T, len(parts)) // want `make in a //hhgb:noalloc function`
	_ = spill
}

// unmarked is outside the directive's reach: every idiom above is fine.
func unmarked() []uint64 {
	out := make([]uint64, 0, 4)
	out = append(out, 1)
	other := append(out, 2)
	fmt.Println(&entry{K: 1}, other)
	return other
}
