package gb

// BinaryOp combines two values of the same type. GraphBLAS binary operators
// with uniform input/output types; sufficient for the streaming workload.
type BinaryOp[T Number] func(x, y T) T

// UnaryOp maps one value to another of the same type.
type UnaryOp[T Number] func(x T) T

// IndexPredicate decides whether entry (i, j, v) is kept by Select.
type IndexPredicate[T Number] func(i, j Index, v T) bool

// Monoid is a binary operator together with its identity element. The
// operator is assumed associative; commutativity is required only where
// documented (eWiseAdd-based cascades rely on it).
type Monoid[T Number] struct {
	Op       BinaryOp[T]
	Identity T
	Name     string
}

// Semiring pairs an additive monoid with a multiplicative binary operator,
// as used by MxM, MxMMasked and VxM.
type Semiring[T Number] struct {
	Add  Monoid[T]
	Mul  BinaryOp[T]
	Name string
}

// Plus returns the conventional (+, 0) monoid. It is the monoid the
// hierarchical cascade is built on.
func Plus[T Number]() Monoid[T] {
	return Monoid[T]{Op: func(x, y T) T { return x + y }, Identity: 0, Name: "plus"}
}

// MaxWith returns the (max, identity) monoid; identity must be the smallest
// representable value of T.
func MaxWith[T Number](identity T) Monoid[T] {
	return Monoid[T]{
		Op: func(x, y T) T {
			if x > y {
				return x
			}
			return y
		},
		Identity: identity,
		Name:     "max",
	}
}

// Any returns the GraphBLAS ANY monoid: the result is one of the inputs,
// unspecified which. Useful for structural (pattern-only) computations.
func Any[T Number]() Monoid[T] {
	return Monoid[T]{Op: func(x, _ T) T { return x }, Identity: 0, Name: "any"}
}

// First returns x; Second returns y. The standard positional operators.
func First[T Number](x, _ T) T  { return x }
func Second[T Number](_, y T) T { return y }

// PlusPair returns the (+, pair) semiring, where pair(x,y) == 1. MxM over
// plus.pair counts structural overlaps (e.g. triangle counting).
func PlusPair[T Number]() Semiring[T] {
	return Semiring[T]{Add: Plus[T](), Mul: func(_, _ T) T { return 1 }, Name: "plus.pair"}
}
