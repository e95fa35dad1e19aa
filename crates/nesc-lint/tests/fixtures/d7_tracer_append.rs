//! D7/P2 fixture, linted as `sim/src/trace.rs`: a span tracer whose
//! append gives every span a heap-grown attribute list and indexes its log.
//! The `;` of the array type in the signature does not end the region.

impl Tracer {
    // nesc-lint: hot
    pub fn start<const N: usize>(&self, at: SimTime, kv: [(&'static str, u64); N]) -> SpanId {
        let mut log = self.log.borrow_mut();
        let id = SpanId(log.next_id);
        log.spans.push(Span {
            id,
            start: at,
            attrs: Vec::new(),
        });
        log.spans[0].attrs.extend(kv);
        id
    }

    // The inline shape the real tracer keeps: the attributes arrive as a
    // fixed-size array and the span is written under one borrow.
    // nesc-lint: hot
    pub fn span<const N: usize>(&self, parent: SpanId, attrs: [(&'static str, u64); N]) -> SpanId {
        let attrs = Attrs::from(attrs);
        self.log.borrow_mut().record(parent, attrs)
    }
}
