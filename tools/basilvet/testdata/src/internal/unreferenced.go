package internal

// Stale is an exported func nothing in the fixture tree names.
func Stale() int { return 2 } // want BV010

// Visitor is an interface whose method no code calls by name.
type Visitor interface{ Visit() }

// Node implements Visitor.
type Node struct{}

// Visit is exempt: an interface type in the tree declares the name.
func (Node) Visit() {}

// String is exempt: fmt.Stringer calls it by convention.
func (Node) String() string { return "node" }
