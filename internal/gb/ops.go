package gb

// BinaryOp combines two values of the same type. GraphBLAS binary operators
// with uniform input/output types; sufficient for the streaming workload.
type BinaryOp[T Number] func(x, y T) T

// Monoid is a binary operator together with its identity element. The
// operator is assumed associative; commutativity is required only where
// documented (eWiseAdd-based cascades rely on it).
type Monoid[T Number] struct {
	Op       BinaryOp[T]
	Identity T
	Name     string
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
