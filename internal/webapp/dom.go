package webapp

import (
	"encoding/json"
	"fmt"
)

// Node is one element of the app's DOM tree, which controls the screen
// display of the web app. The paper's snapshots include the DOM so that the
// edge server can even update the client's screen (§I).
type Node struct {
	Tag      string            `json:"tag"`
	ID       string            `json:"id,omitempty"`
	Text     string            `json:"text,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*Node           `json:"children,omitempty"`
}

// NewNode constructs a DOM node.
func NewNode(tag, id string) *Node {
	return &Node{Tag: tag, ID: id}
}

// AppendChild attaches child as the last child of n and returns child for
// chaining.
func (n *Node) AppendChild(child *Node) *Node {
	n.Children = append(n.Children, child)
	return child
}

// Find returns the first node in the subtree (pre-order) whose ID matches,
// like document.getElementById, or nil if absent.
func (n *Node) Find(id string) *Node {
	if n == nil {
		return nil
	}
	if n.ID == id {
		return n
	}
	for _, c := range n.Children {
		if got := c.Find(id); got != nil {
			return got
		}
	}
	return nil
}

// Clone deep-copies the subtree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	out := &Node{Tag: n.Tag, ID: n.ID, Text: n.Text}
	if n.Attrs != nil {
		out.Attrs = make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			out.Attrs[k] = v
		}
	}
	if n.Children != nil {
		out.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			out.Children[i] = c.Clone()
		}
	}
	return out
}

// Equal reports whether two subtrees are structurally identical.
func (n *Node) Equal(other *Node) bool {
	if n == nil || other == nil {
		return n == other
	}
	if n.Tag != other.Tag || n.ID != other.ID || n.Text != other.Text {
		return false
	}
	if len(n.Attrs) != len(other.Attrs) || len(n.Children) != len(other.Children) {
		return false
	}
	for k, v := range n.Attrs {
		if w, ok := other.Attrs[k]; !ok || v != w {
			return false
		}
	}
	for i := range n.Children {
		if !n.Children[i].Equal(other.Children[i]) {
			return false
		}
	}
	return true
}

// CountNodes returns the number of nodes in the subtree.
func (n *Node) CountNodes() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.CountNodes()
	}
	return total
}

// MarshalDOM encodes the tree as JSON (single line, snapshot-friendly).
func MarshalDOM(n *Node) ([]byte, error) {
	data, err := json.Marshal(n)
	if err != nil {
		return nil, fmt.Errorf("webapp: marshal dom: %w", err)
	}
	return data, nil
}

// UnmarshalDOM decodes a tree produced by MarshalDOM.
func UnmarshalDOM(data []byte) (*Node, error) {
	var n Node
	if err := json.Unmarshal(data, &n); err != nil {
		return nil, fmt.Errorf("webapp: unmarshal dom: %w", err)
	}
	return &n, nil
}
