package topology

// An AS path is a sequence of ASNs from a source AS to a destination AS,
// in forwarding order: path[0] is the source, path[len-1] the destination
// (origin of the prefix). This mirrors how the simulator stores AS paths
// and is the reverse of BGP's wire encoding, which lists the origin last
// from the receiver's point of view.

// PathContainsLink reports whether the path traverses the undirected link
// {a, b} in either direction.
func PathContainsLink(path []ASN, a, b ASN) bool {
	for i := 0; i+1 < len(path); i++ {
		if (path[i] == a && path[i+1] == b) || (path[i] == b && path[i+1] == a) {
			return true
		}
	}
	return false
}

// PathContainsAS reports whether v appears anywhere on the path.
func PathContainsAS(path []ASN, v ASN) bool {
	for _, x := range path {
		if x == v {
			return true
		}
	}
	return false
}
