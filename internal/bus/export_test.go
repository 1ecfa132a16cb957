package bus

import "fmt"

// Hooks for the external tests, which decode on the platform's boards.

// Decode is decode.
func (b *Bus) Decode(addr uint32) (Slave, uint32, error) { return b.decode(addr) }

// LinearDecode is decode without its last-hit check: the first mapping
// owning addr, in map order.
func (b *Bus) LinearDecode(addr uint32) (Slave, uint32, error) {
	for _, m := range b.maps {
		if addr >= m.base && addr-m.base < m.size {
			return m.slave, addr - m.base, nil
		}
	}
	return nil, 0, fmt.Errorf("bus %s: no slave at address %#08x (bus error)", b.name, addr)
}

// Windows returns every mapping's base and size.
func (b *Bus) Windows() [][2]uint32 {
	var out [][2]uint32
	for _, m := range b.maps {
		out = append(out, [2]uint32{m.base, m.size})
	}
	return out
}
