package serve

import "container/list"

// result is a completed flight's output: the value in-process callers
// (Service.Plan, jobs, the similarity index) read, and its canonical
// JSON. The body is encoded once, when the flight completes — or taken
// from the WAL record on boot — and every HTTP cache hit writes it to the
// socket verbatim instead of re-marshalling the value. Bodies are shared
// and never mutated.
type result struct {
	val  any
	body []byte
}

// planCache is a plain LRU keyed by request fingerprint. It is not
// concurrency-safe; the Service guards it with its mutex, which also
// makes the lookup-then-coalesce sequence atomic.
type planCache struct {
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
	// onEvict, when set, is called with each key the LRU bound pushes out
	// (not on overwrites). The similarity index hooks it so index entries
	// can never outlive the plan they point at. Runs under the same lock
	// as every other cache call (the Service mutex).
	onEvict func(key string)
}

type cacheEntry struct {
	key string
	res result
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *planCache) get(key string) (result, bool) {
	el, ok := c.m[key]
	if !ok {
		return result{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

func (c *planCache) add(key string, res result) {
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		k := oldest.Value.(*cacheEntry).key
		delete(c.m, k)
		if c.onEvict != nil {
			c.onEvict(k)
		}
	}
}

func (c *planCache) len() int { return c.ll.Len() }
