package syncprims

import "wisync/internal/core"

// cacheVar is a synchronization variable in regular coherent memory.
type cacheVar struct {
	addr uint64
}

func (v *cacheVar) Load(t *core.Task, then func(uint64))      { t.Read(v.addr, then) }
func (v *cacheVar) Store(t *core.Task, x uint64, then func()) { t.Write(v.addr, x, then) }
func (v *cacheVar) CAS(t *core.Task, old, nv uint64, then func(bool)) {
	t.CAS(v.addr, old, nv, then)
}
func (v *cacheVar) FetchAdd(t *core.Task, d uint64, then func(uint64)) {
	t.FetchAdd(v.addr, d, then)
}
func (v *cacheVar) SpinUntil(t *core.Task, cond func(uint64) bool, then func(uint64)) {
	t.SpinUntil(v.addr, cond, then)
}

func (v *cacheVar) InBM() bool { return false }

// bmVar is a broadcast variable in the Broadcast Memory.
type bmVar struct {
	addr uint32
}

func (v *bmVar) Load(t *core.Task, then func(uint64))      { t.BMLoad(v.addr, then) }
func (v *bmVar) Store(t *core.Task, x uint64, then func()) { t.BMStore(v.addr, x, then) }
func (v *bmVar) CAS(t *core.Task, old, nv uint64, then func(bool)) {
	t.BMCAS(v.addr, old, nv, then)
}
func (v *bmVar) FetchAdd(t *core.Task, d uint64, then func(uint64)) {
	t.BMFetchAdd(v.addr, d, then)
}
func (v *bmVar) SpinUntil(t *core.Task, cond func(uint64) bool, then func(uint64)) {
	t.BMSpinUntil(v.addr, cond, then)
}

func (v *bmVar) InBM() bool { return true }
