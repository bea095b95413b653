/* Native fast paths of parser.parse (tokenizer and in-body tree builder)
 * and of extract.extract_spans (the span walk).
 *
 * build(html, pos, defer, tb) -> (token, pos)
 *
 * Starting at pos, tokenizes the tokens that the tokenizer regexes of
 * parser.py accept on their strict path (text runs up to a '<',
 * _START_TAG_RE start tags, _END_TAG_RE end tags; names lowercased and
 * interned) and inserts each straight into the live _TreeBuilder `tb`:
 * it updates tb.stack and tb.afe and reads tb.mode, tb.afe_dirty,
 * tb.body and tb.html.  It does only what the builder's in-body common
 * case does, with no recovery rule firing: text (entities through
 * parser._decode; HTML-whitespace runs become Whitespace nodes),
 * ordinary and void start tags (attributes through parser._parse_attrs,
 * the implied-end closers loop), formatting start tags with their
 * active-formatting entry, the table/cell markers, and end tags that
 * close the stack top.  The first token that needs a Python rule is
 * returned, not inserted, as
 *   (0, text, start, end)
 *   (1, name, attrs, start, end, self_closing)
 *   (2, name, start, end)
 * with pos just past it; outside in-body mode that is every token, one
 * per call.  (None, pos) stops at a '<' that only parse's loop
 * tokenizes: comments, '<!', '<?', a bare '<', end tags carrying junk,
 * unterminated tags and quotes, names of MAX_NAME or more characters,
 * and start tags whose name is in the frozenset `defer`.
 *
 * release(root) empties every child list under root (dom.release).
 *
 * extract(root, strip_tags, ad_tokens, normalize_ws, emit_links,
 * kind_by_tag) -> [(kind, text, media_ref, offset)] is the walk of
 * extract.extract_spans (before prune_links), span for span: the strip
 * test (strip_tags here; every nonempty class/id value goes to
 * extract._has_ad_token), media and link spans, kinded and plain block
 * flushes, the <pre> rule and the whitespace collapse of
 * " ".join(s.split()).  The Python loop stays the specification.  A tree
 * the parser does not build (a child that is not an Element or a
 * TextNode, a child list that is not a list, attrs that are not a dict, a
 * text that is not a str) raises TypeError.
 *
 * configure(...), called once at the end of parser.py, passes the node
 * and builder classes (their __slots__ offsets are read here from the
 * member descriptors), the node kinds and the rule sets, so tag names
 * live in parser.py only; configure_extract(...), at the end of
 * extract.py, passes the walk's tag sets and _has_ad_token.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#ifndef Py_ALWAYS_INLINE
#define Py_ALWAYS_INLINE
#endif

#define MAX_NAME 256

#define SLOT(o, off) (*(PyObject **)((char *)(o) + (off)))

#if PY_VERSION_HEX < 0x030C0000
#define READY(s) PyUnicode_READY(s)
#else
#define READY(s) 0
#endif

/* set by configure() */
static PyTypeObject *Element, *TextNode, *Document, *Builder;
static Py_ssize_t n_kind, n_parent, n_index;            /* Node */
static Py_ssize_t e_tag, e_attrs, e_children, e_start, e_stag_end,
                  e_etag_start, e_end, e_implied;       /* Element */
static Py_ssize_t t_text, t_start, t_end;               /* TextNode */
static Py_ssize_t d_children;                           /* Document */
static Py_ssize_t b_stack, b_afe, b_mode, b_afe_dirty, b_html, b_body;
static PyObject *k_element, *k_text, *k_whitespace, *afe_marker;
static PyObject *s_void, *closed_by, *s_closer, *s_formatting, *s_markers,
                *s_scaffold, *s_rule_tags, *s_pre, *s_no_nest;
static PyObject *decode, *parse_attrs;
static long in_body_mode;
static int configured;

/* -- tokenizer: the only code that reads characters per kind -- */

struct tag {
    int end_tag, slash;
    Py_ssize_t attrs_start, attrs_end;  /* raw attribute text */
    Py_ssize_t end;                     /* one past '>' */
    Py_ssize_t name_len;
    char name[MAX_NAME];                /* lowercased */
};

static inline int
is_alpha(Py_UCS4 c)
{
    return (c | 0x20) >= 'a' && (c | 0x20) <= 'z';
}

static inline int
is_name(Py_UCS4 c)          /* [a-zA-Z0-9:_-] */
{
    return is_alpha(c) || (c >= '0' && c <= '9') || c == ':' || c == '_'
           || c == '-';
}

#define READ(i) PyUnicode_READ(kind, d, (i))

/* 1 if the '<' at lt opens a tag the strict regexes accept (filled into
 * t), 0 if parse's loop must tokenize it */
static inline Py_ALWAYS_INLINE int
lex_kind(const int kind, const void *d, Py_ssize_t n, Py_ssize_t lt,
         struct tag *t)
{
    Py_UCS4 c = READ(lt + 1);
    t->end_tag = c == '/';
    Py_ssize_t a = lt + 1 + t->end_tag, p = a;
    if (!is_alpha(READ(a)))
        return 0;
    while (p < n && is_name(READ(p)))
        p++;
    if (p - a >= MAX_NAME)
        return 0;
    for (Py_ssize_t i = a; i < p; i++) {
        c = READ(i);
        t->name[i - a] = (char)(c <= 'Z' ? c | 0x20 : c);
    }
    t->name_len = p - a;
    t->attrs_start = p;
    t->slash = 0;
    if (t->end_tag) {           /* </name\s*> */
        while (p < n && Py_UNICODE_ISSPACE(READ(p)))
            p++;
        if (p >= n || READ(p) != '>')
            return 0;
    }
    else {                      /* first '>' outside quotes */
        for (; p < n; p++) {
            c = READ(p);
            if (c == '>' || (c == '/' && p + 1 < n && READ(p + 1) == '>'))
                break;
            if (c == '"' || c == '\'') {
                do
                    p++;
                while (p < n && READ(p) != c);
                if (p >= n)     /* unterminated quote */
                    return 0;
            }
        }
        if (p >= n)
            return 0;
        t->slash = READ(p) == '/';
    }
    t->attrs_end = p;
    t->end = p + t->slash + 1;
    return 1;
}

static int
lex(PyObject *s, Py_ssize_t lt, struct tag *t)
{
    const void *d = PyUnicode_DATA(s);
    Py_ssize_t n = PyUnicode_GET_LENGTH(s);
    switch (PyUnicode_KIND(s)) {
    case PyUnicode_1BYTE_KIND:
        return lex_kind(PyUnicode_1BYTE_KIND, d, n, lt, t);
    case PyUnicode_2BYTE_KIND:
        return lex_kind(PyUnicode_2BYTE_KIND, d, n, lt, t);
    default:
        return lex_kind(PyUnicode_4BYTE_KIND, d, n, lt, t);
    }
}

/* a run made only of HTML whitespace: TAB, LF, FF, CR, SPACE */
static int
is_ws_run(PyObject *s, Py_ssize_t a, Py_ssize_t b)
{
    const int kind = PyUnicode_KIND(s);
    const void *d = PyUnicode_DATA(s);
    for (; a < b; a++) {
        Py_UCS4 c = READ(a);
        if (c != ' ' && c != '\t' && c != '\n' && c != '\f' && c != '\r')
            return 0;
    }
    return 1;
}

/* -- builder -- */

struct builder {
    PyObject *tb, *stack, *afe, *html, *body;   /* borrowed from tb */
    int in_body, afe_dirty;
};

/* has() and eq() leave a failure's exception set; build() checks for
 * one before it returns */
static inline int
has(PyObject *set, PyObject *key)
{
    return PySet_Contains(set, key) > 0;
}

static inline int
eq(PyObject *a, PyObject *b)
{
    return PyObject_RichCompareBool(a, b, Py_EQ) > 0;
}

/* the stack top when it is an Element (the common case), else NULL */
static inline PyObject *
top_element(struct builder *b)
{
    PyObject *top = PyList_GET_ITEM(b->stack, PyList_GET_SIZE(b->stack) - 1);
    return Py_IS_TYPE(top, Element) ? top : NULL;     /* never the Document */
}

static inline void
set_slot(PyObject *o, Py_ssize_t off, PyObject *v)    /* steals v */
{
    PyObject *old = SLOT(o, off);
    SLOT(o, off) = v;
    Py_XDECREF(old);
}

static PyObject *
children_of(PyObject *node)
{
    if (Py_IS_TYPE(node, Element))
        return SLOT(node, e_children);
    if (Py_IS_TYPE(node, Document))
        return SLOT(node, d_children);
    return NULL;
}

/* _TreeBuilder._append: node becomes the last child of the stack top */
static int
append(struct builder *b, PyObject *node)
{
    PyObject *parent = PyList_GET_ITEM(b->stack,
                                       PyList_GET_SIZE(b->stack) - 1);
    PyObject *kids = children_of(parent);
    if (kids == NULL || !PyList_CheckExact(kids)) {
        PyErr_SetString(PyExc_TypeError, "stack top has no child list");
        return -1;
    }
    PyObject *index = PyLong_FromSsize_t(PyList_GET_SIZE(kids));
    if (index == NULL)
        return -1;
    Py_INCREF(parent);
    set_slot(node, n_parent, parent);
    set_slot(node, n_index, index);
    return PyList_Append(kids, node);
}

static PyObject *
new_text(PyObject *kind, PyObject *text, Py_ssize_t start, Py_ssize_t end)
{
    PyObject *a = PyLong_FromSsize_t(start), *z = PyLong_FromSsize_t(end);
    PyObject *node = a && z ? TextNode->tp_alloc(TextNode, 0) : NULL;
    if (node == NULL) {
        Py_XDECREF(a);
        Py_XDECREF(z);
        Py_DECREF(text);
        return NULL;
    }
    Py_INCREF(kind);
    SLOT(node, n_kind) = kind;
    SLOT(node, t_text) = text;
    SLOT(node, t_start) = a;
    SLOT(node, t_end) = z;
    return node;
}

/* Element(tag, attrs, start, start_tag_end); steals attrs */
static PyObject *
new_element(PyObject *tag, PyObject *attrs, Py_ssize_t start,
            Py_ssize_t start_tag_end)
{
    PyObject *a = PyLong_FromSsize_t(start);
    PyObject *z = PyLong_FromSsize_t(start_tag_end);
    PyObject *kids = PyList_New(0);
    PyObject *el = a && z && kids ? Element->tp_alloc(Element, 0) : NULL;
    if (el == NULL) {
        Py_XDECREF(a);
        Py_XDECREF(z);
        Py_XDECREF(kids);
        Py_DECREF(attrs);
        return NULL;
    }
    Py_INCREF(k_element);
    SLOT(el, n_kind) = k_element;
    Py_INCREF(tag);
    SLOT(el, e_tag) = tag;
    SLOT(el, e_attrs) = attrs;
    SLOT(el, e_children) = kids;
    SLOT(el, e_start) = a;
    Py_INCREF(z);
    Py_INCREF(z);
    SLOT(el, e_stag_end) = z;
    SLOT(el, e_etag_start) = z;
    SLOT(el, e_end) = z;
    Py_INCREF(Py_False);
    SLOT(el, e_implied) = Py_False;
    return el;
}

/* _TreeBuilder._pop: implied close of the stack top at pos */
static int
pop(struct builder *b, Py_ssize_t pos)
{
    Py_ssize_t n = PyList_GET_SIZE(b->stack);
    PyObject *el = PyList_GET_ITEM(b->stack, n - 1);
    Py_INCREF(el);
    int r = PyList_SetSlice(b->stack, n - 1, n, NULL);
    if (r == 0) {
        if (has(s_formatting, SLOT(el, e_tag))) {
            Py_INCREF(Py_True);
            set_slot(b->tb, b_afe_dirty, Py_True);
            b->afe_dirty = 1;
        }
        Py_ssize_t end = PyLong_AsSsize_t(SLOT(el, e_end));
        Py_ssize_t stag_end = PyLong_AsSsize_t(SLOT(el, e_stag_end));
        if (PyErr_Occurred())
            r = -1;
        else if (end <= stag_end) {
            PyObject *p = PyLong_FromSsize_t(pos);
            if (p == NULL)
                r = -1;
            else {
                Py_INCREF(p);
                set_slot(el, e_etag_start, p);
                set_slot(el, e_end, p);
            }
        }
    }
    Py_DECREF(el);
    return r;
}

static int
afe_append(struct builder *b, PyObject *tag, PyObject *attrs, PyObject *el)
{
    PyObject *entry = PyList_New(3);
    if (entry == NULL)
        return -1;
    Py_INCREF(tag);
    Py_INCREF(attrs);
    Py_INCREF(el);
    PyList_SET_ITEM(entry, 0, tag);
    PyList_SET_ITEM(entry, 1, attrs);
    PyList_SET_ITEM(entry, 2, el);
    int r = PyList_Append(b->afe, entry);
    Py_DECREF(entry);
    return r;
}

/* 1 if a formatting start tag needs a Python rule: a nested <a>, or the
 * Noah's Ark clause (3 identical entries since the last marker) */
static int
afe_needs_rule(struct builder *b, PyObject *tag, PyObject *attrs)
{
    int count = 0, no_nest = has(s_no_nest, tag);
    for (Py_ssize_t i = PyList_GET_SIZE(b->afe) - 1; i >= 0; i--) {
        PyObject *e = PyList_GET_ITEM(b->afe, i);
        if (e == afe_marker)
            break;
        if (!PyList_CheckExact(e) || PyList_GET_SIZE(e) != 3)
            return 1;
        if (eq(PyList_GET_ITEM(e, 0), tag)) {
            if (no_nest)
                return 1;
            count += eq(PyList_GET_ITEM(e, 1), attrs);
        }
    }
    return count >= 3;
}

/* _TreeBuilder._afe_remove */
static int
afe_remove(struct builder *b, PyObject *el)
{
    for (Py_ssize_t i = PyList_GET_SIZE(b->afe) - 1; i >= 0; i--) {
        PyObject *e = PyList_GET_ITEM(b->afe, i);
        if (e != afe_marker && PyList_CheckExact(e) && PyList_GET_SIZE(e) == 3
                && PyList_GET_ITEM(e, 2) == el)
            return PyList_SetSlice(b->afe, i, i + 1, NULL);
    }
    return 0;
}

/* _TreeBuilder._afe_clear_to_marker */
static int
afe_clear_to_marker(struct builder *b)
{
    Py_ssize_t i = PyList_GET_SIZE(b->afe);
    while (i > 0 && PyList_GET_ITEM(b->afe, i - 1) != afe_marker)
        i--;
    return PyList_SetSlice(b->afe, i > 0 ? i - 1 : 0,
                           PyList_GET_SIZE(b->afe), NULL);
}

/* Each token handler returns 1 when it inserted the token, 0 when it
 * set *tok to the token for parse's Python rules, -1 on error. */

static int
text(struct builder *b, PyObject *s, Py_ssize_t a, Py_ssize_t z,
     PyObject **tok)
{
    PyObject *top = b->in_body ? top_element(b) : NULL;
    int ws = top != NULL && is_ws_run(s, a, z);
    if (top == NULL
            || (has(s_pre, SLOT(top, e_tag))
                && PyList_GET_SIZE(SLOT(top, e_children)) == 0)
            || (!ws && (b->afe_dirty || has(s_scaffold, SLOT(top, e_tag))))) {
        *tok = Py_BuildValue("(iNnn)", 0, PyUnicode_Substring(s, a, z), a, z);
        return *tok ? 0 : -1;
    }
    PyObject *raw = PyUnicode_Substring(s, a, z);
    if (raw == NULL)
        return -1;
    PyObject *txt = raw;
    Py_ssize_t amp = ws ? -1 : PyUnicode_FindChar(s, '&', a, z, 1);
    if (amp == -2)
        txt = NULL;
    else if (amp >= 0)
        txt = PyObject_CallOneArg(decode, raw);
    if (txt != raw)
        Py_DECREF(raw);
    if (txt == NULL)
        return -1;
    PyObject *node = new_text(ws ? k_whitespace : k_text, txt, a, z);
    if (node == NULL)
        return -1;
    int r = append(b, node);
    Py_DECREF(node);
    return r < 0 ? -1 : 1;
}

static int
start_tag(struct builder *b, PyObject *s, PyObject *tag, const struct tag *t,
          Py_ssize_t lt, PyObject **tok)
{
    PyObject *attrs;
    if (t->attrs_end > t->attrs_start) {
        PyObject *raw = PyUnicode_Substring(s, t->attrs_start, t->attrs_end);
        attrs = raw ? PyObject_CallOneArg(parse_attrs, raw) : NULL;
        Py_XDECREF(raw);
    }
    else
        attrs = PyDict_New();
    if (attrs == NULL)
        return -1;
    int fmt = has(s_formatting, tag);
    /* formatting tags are in no closer set, so these tests see the
     * state the closers loop below would leave */
    if (!b->in_body || top_element(b) == NULL || has(s_rule_tags, tag)
            || (t->slash && !has(s_void, tag))
            || (fmt && (b->afe_dirty || afe_needs_rule(b, tag, attrs)))) {
        *tok = Py_BuildValue("(iONnnO)", 1, tag, attrs, lt, t->end,
                             t->slash ? Py_True : Py_False);
        return *tok ? 0 : -1;
    }
    if (has(s_closer, tag)) {
        for (;;) {
            PyObject *top = top_element(b);
            if (top == NULL)
                break;
            PyObject *closers = PyDict_GetItemWithError(closed_by,
                                                        SLOT(top, e_tag));
            if (closers == NULL) {
                if (PyErr_Occurred())
                    goto fail;
                break;
            }
            if (!has(closers, tag))
                break;
            if (pop(b, lt) < 0)
                goto fail;
        }
    }
    Py_INCREF(attrs);
    PyObject *el = new_element(tag, attrs, lt, t->end);
    if (el == NULL || append(b, el) < 0)
        goto fail_el;
    if (fmt) {
        if (PyList_Append(b->stack, el) < 0
                || afe_append(b, tag, attrs, el) < 0)
            goto fail_el;
    }
    else if (!has(s_void, tag)) {
        if (PyList_Append(b->stack, el) < 0
                || (has(s_markers, tag)
                    && PyList_Append(b->afe, afe_marker) < 0))
            goto fail_el;
    }
    Py_DECREF(el);
    Py_DECREF(attrs);
    return 1;
fail_el:
    Py_XDECREF(el);
fail:
    Py_DECREF(attrs);
    return -1;
}

static int
end_tag(struct builder *b, PyObject *tag, Py_ssize_t lt, Py_ssize_t end,
        PyObject **tok)
{
    PyObject *top = b->in_body ? top_element(b) : NULL;
    if (top == NULL || top == b->body || top == b->html
            || !eq(SLOT(top, e_tag), tag)) {
        *tok = Py_BuildValue("(iOnn)", 2, tag, lt, end);
        return *tok ? 0 : -1;
    }
    PyObject *a = PyLong_FromSsize_t(lt), *z = PyLong_FromSsize_t(end);
    Py_ssize_t n = PyList_GET_SIZE(b->stack);
    Py_INCREF(top);
    int r = a && z ? PyList_SetSlice(b->stack, n - 1, n, NULL) : -1;
    if (r == 0) {
        set_slot(top, e_etag_start, a);
        set_slot(top, e_end, z);
        a = z = NULL;
        if (has(s_formatting, tag))
            r = afe_remove(b, top);
        else if (has(s_markers, tag))
            r = afe_clear_to_marker(b);
    }
    Py_XDECREF(a);
    Py_XDECREF(z);
    Py_DECREF(top);
    return r < 0 ? -1 : 1;
}

static PyObject *
build(PyObject *self, PyObject *args)
{
    PyObject *s, *defer, *tb, *tok = NULL;
    Py_ssize_t pos;
    if (!PyArg_ParseTuple(args, "UnO!O:build", &s, &pos, &PyFrozenSet_Type,
                          &defer, &tb))
        return NULL;
    if (!configured || !Py_IS_TYPE(tb, Builder)) {
        PyErr_SetString(PyExc_TypeError, "build needs a configured builder");
        return NULL;
    }
    if (READY(s) < 0)
        return NULL;
    const Py_ssize_t n = PyUnicode_GET_LENGTH(s);
    if (pos < 0 || pos > n) {
        PyErr_SetString(PyExc_ValueError, "pos out of range");
        return NULL;
    }
    struct builder b = {tb, SLOT(tb, b_stack), SLOT(tb, b_afe),
                        SLOT(tb, b_html), SLOT(tb, b_body), 0, 0};
    PyObject *mode = SLOT(tb, b_mode), *dirty = SLOT(tb, b_afe_dirty);
    /* stack[0] is the Document, which is never popped here */
    if (!b.stack || !PyList_CheckExact(b.stack) || !PyList_GET_SIZE(b.stack)
            || !Py_IS_TYPE(PyList_GET_ITEM(b.stack, 0), Document)
            || !b.afe || !PyList_CheckExact(b.afe) || !mode || !dirty) {
        PyErr_SetString(PyExc_TypeError, "malformed builder state");
        return NULL;
    }
    b.in_body = PyLong_AsLong(mode) == in_body_mode;
    b.afe_dirty = PyObject_IsTrue(dirty);
    if (PyErr_Occurred())
        return NULL;
    while (pos < n) {
        Py_ssize_t lt = PyUnicode_FindChar(s, '<', pos, n, 1);
        if (lt == -2)
            return NULL;
        if (lt == -1)
            lt = n;
        if (lt > pos) {
            int r = text(&b, s, pos, lt, &tok);
            if (r < 0)
                return NULL;
            pos = lt;
            if (r == 0)
                goto token;
        }
        struct tag t;
        if (lt + 2 >= n || !lex(s, lt, &t))  /* EOF, '<' in the last two */
            break;
        PyObject *tag = PyUnicode_FromStringAndSize(t.name, t.name_len);
        if (tag == NULL)
            return NULL;
        PyUnicode_InternInPlace(&tag);
        int r;
        if (t.end_tag)
            r = end_tag(&b, tag, lt, t.end, &tok);
        else if ((r = PySet_Contains(defer, tag)) == 0)
            r = start_tag(&b, s, tag, &t, lt, &tok);
        else if (r > 0) {           /* deferred: parse's loop takes it */
            Py_DECREF(tag);
            break;
        }
        Py_DECREF(tag);
        if (r < 0)
            return NULL;
        pos = t.end;
        if (r == 0)
            goto token;
    }
    tok = Py_None;
    Py_INCREF(tok);
token:
    if (PyErr_Occurred()) {     /* a set or equality test that failed */
        Py_DECREF(tok);
        return NULL;
    }
    return Py_BuildValue("(Nn)", tok, pos);
}

/* dom.release: empty every child list under root, root's own included */
static PyObject *
release(PyObject *self, PyObject *root)
{
    Py_ssize_t cap = 256, n = 0;
    PyObject **todo = PyMem_New(PyObject *, cap);
    int err = 0;
    if (todo == NULL)
        return PyErr_NoMemory();
    Py_INCREF(root);
    todo[n++] = root;
    while (n > 0) {         /* after an error, only drops what it holds */
        PyObject *node = todo[--n], *kids = NULL;
        if (Py_IS_TYPE(node, TextNode))
            ;                           /* leaves share one empty () */
        else if ((kids = children_of(node)) != NULL)
            Py_INCREF(kids);
        else if (!err)
            err = (kids = PyObject_GetAttrString(node, "_children")) == NULL;
        Py_ssize_t k = !err && kids && PyList_Check(kids)
                       ? PyList_GET_SIZE(kids) : 0;
        if (k > 0 && n + k > cap) {
            PyObject **grown = PyMem_Resize(todo, PyObject *, 2 * (n + k));
            if (grown == NULL) {
                PyErr_NoMemory();
                err = 1;
                k = 0;
            }
            else {
                todo = grown;
                cap = 2 * (n + k);
            }
        }
        if (k > 0) {
            for (Py_ssize_t i = 0; i < k; i++) {
                todo[n + i] = PyList_GET_ITEM(kids, i);
                Py_INCREF(todo[n + i]);
            }
            n += k;
            err = PyList_SetSlice(kids, 0, k, NULL) < 0;
        }
        Py_XDECREF(kids);
        Py_DECREF(node);
    }
    PyMem_Free(todo);
    if (err)
        return NULL;
    Py_RETURN_NONE;
}

/* -- span extraction: the walk of extract.extract_spans -- */

/* set by configure_extract() */
static PyObject *s_media, *s_blocks, *k_comment, *has_ad_token;
static int extract_configured;
/* interned at module init */
static PyObject *str_empty, *str_space, *str_text, *str_code, *str_media,
                *str_link, *str_a, *str_class, *str_id, *str_src,
                *str_data_src, *str_href;

enum close { CLOSE_INLINE, CLOSE_BLOCK, CLOSE_KIND };

struct frame {
    PyObject *kids;         /* the child list being walked (strong) */
    Py_ssize_t i;           /* its next child */
    enum close close;
    PyObject *kind;         /* CLOSE_KIND: the block's kind (strong) */
    PyObject *outer;        /* CLOSE_KIND: the kind around the block */
};

struct walk {
    PyObject *strip, *ad_tokens, *kind_by_tag, *spans;
    int normalize, links;
    struct frame *frames;
    Py_ssize_t nframes, cap;
    PyObject **buf;         /* text pieces of the open span (strong) */
    Py_ssize_t nbuf, bufcap;
    PyObject *kind;         /* innermost block kind (borrowed) */
};

/* pushes a frame over `kids`, which must be a list */
static int
push_frame(struct walk *w, PyObject *kids, enum close close, PyObject *kind)
{
    if (kids == NULL || !PyList_Check(kids)) {
        PyErr_SetString(PyExc_TypeError, "_children is not a list");
        return -1;
    }
    if (w->nframes == w->cap) {
        Py_ssize_t cap = w->cap ? 2 * w->cap : 64;
        struct frame *grown = PyMem_Resize(w->frames, struct frame, cap);
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        w->frames = grown;
        w->cap = cap;
    }
    struct frame *f = &w->frames[w->nframes++];
    Py_INCREF(kids);
    Py_XINCREF(kind);
    *f = (struct frame){kids, 0, close, kind, w->kind};
    if (close == CLOSE_KIND)
        w->kind = kind;
    return 0;
}

static void
pop_frame(struct walk *w)
{
    struct frame *f = &w->frames[--w->nframes];
    if (f->close == CLOSE_KIND)
        w->kind = f->outer;
    Py_DECREF(f->kids);
    Py_XDECREF(f->kind);
}

static int
no_slot(const char *name)
{
    PyErr_Format(PyExc_TypeError, "%s is not set", name);
    return -1;
}

static int
buf_add(struct walk *w, PyObject *text)
{
    if (text == NULL || !PyUnicode_Check(text)) {
        PyErr_SetString(PyExc_TypeError, "TextNode.text is not a str");
        return -1;
    }
    if (READY(text) < 0)
        return -1;
    if (w->nbuf == w->bufcap) {
        Py_ssize_t cap = w->bufcap ? 2 * w->bufcap : 64;
        PyObject **grown = PyMem_Resize(w->buf, PyObject *, cap);
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        w->buf = grown;
        w->bufcap = cap;
    }
    Py_INCREF(text);
    w->buf[w->nbuf++] = text;
    return 0;
}

static void
buf_clear(struct walk *w)
{
    while (w->nbuf > 0)
        Py_DECREF(w->buf[--w->nbuf]);
}

/* "".join(buf) */
static PyObject *
buf_join(struct walk *w)
{
    if (w->nbuf == 1) {
        Py_INCREF(w->buf[0]);
        return w->buf[0];
    }
    Py_ssize_t len = 0;
    Py_UCS4 maxc = 0;
    for (Py_ssize_t i = 0; i < w->nbuf; i++) {
        len += PyUnicode_GET_LENGTH(w->buf[i]);
        maxc = Py_MAX(maxc, PyUnicode_MAX_CHAR_VALUE(w->buf[i]));
    }
    PyObject *out = PyUnicode_New(len, maxc);
    for (Py_ssize_t i = 0, at = 0; out != NULL && i < w->nbuf; i++) {
        Py_ssize_t n = PyUnicode_GET_LENGTH(w->buf[i]);
        if (PyUnicode_CopyCharacters(out, at, w->buf[i], 0, n) < 0)
            Py_CLEAR(out);
        at += n;
    }
    return out;
}

/* " ".join("".join(buf).split()); when nothing collapses, the pieces
 * are only joined (one piece is returned as it is) */
static PyObject *
buf_collapse(struct walk *w)
{
    Py_ssize_t len = 0;
    Py_UCS4 maxc = 0;
    int gap = 0, same = 1;  /* a space is due; the output is the input */
    for (Py_ssize_t p = 0; p < w->nbuf; p++) {
        PyObject *s = w->buf[p];
        const int kind = PyUnicode_KIND(s);
        const void *d = PyUnicode_DATA(s);
        for (Py_ssize_t i = 0, n = PyUnicode_GET_LENGTH(s); i < n; i++) {
            Py_UCS4 c = READ(i);
            if (Py_UNICODE_ISSPACE(c)) {
                if (c != ' ' || gap || len == 0)
                    same = 0;
                gap = len > 0;
                continue;
            }
            if (gap) {
                len++;
                maxc = Py_MAX(maxc, ' ');
                gap = 0;
            }
            len++;
            maxc = Py_MAX(maxc, c);
        }
    }
    if (same && !gap)
        return buf_join(w);
    PyObject *out = PyUnicode_New(len, maxc);
    if (out == NULL)
        return NULL;
    const int okind = PyUnicode_KIND(out);
    void *od = PyUnicode_DATA(out);
    Py_ssize_t j = 0;
    gap = 0;
    for (Py_ssize_t p = 0; p < w->nbuf; p++) {
        PyObject *s = w->buf[p];
        const int kind = PyUnicode_KIND(s);
        const void *d = PyUnicode_DATA(s);
        for (Py_ssize_t i = 0, n = PyUnicode_GET_LENGTH(s); i < n; i++) {
            Py_UCS4 c = READ(i);
            if (Py_UNICODE_ISSPACE(c)) {
                gap = j > 0;
                continue;
            }
            if (gap) {
                PyUnicode_WRITE(okind, od, j++, ' ');
                gap = 0;
            }
            PyUnicode_WRITE(okind, od, j++, c);
        }
    }
    return out;
}

/* "".join(buf).strip("\n").rstrip() */
static PyObject *
buf_code(struct walk *w)
{
    PyObject *s = buf_join(w);
    if (s == NULL)
        return NULL;
    const int kind = PyUnicode_KIND(s);
    const void *d = PyUnicode_DATA(s);
    Py_ssize_t a = 0, z = PyUnicode_GET_LENGTH(s);
    while (a < z && READ(a) == '\n')
        a++;
    while (z > a && Py_UNICODE_ISSPACE(READ(z - 1)))
        z--;
    if (a == 0 && z == PyUnicode_GET_LENGTH(s))
        return s;
    PyObject *out = PyUnicode_Substring(s, a, z);
    Py_DECREF(s);
    return out;
}

/* spans.append((kind, text, ref, len(spans))) */
static int
emit(struct walk *w, PyObject *kind, PyObject *text, PyObject *ref)
{
    PyObject *off = PyLong_FromSsize_t(PyList_GET_SIZE(w->spans));
    PyObject *span = off ? PyTuple_Pack(4, kind, text, ref, off) : NULL;
    Py_XDECREF(off);
    int r = span ? PyList_Append(w->spans, span) : -1;
    Py_XDECREF(span);
    return r;
}

/* the text span of buf, as extract_spans's flush(kind) */
static int
flush(struct walk *w, PyObject *kind)
{
    int code = PyObject_RichCompareBool(kind, str_code, Py_EQ);
    PyObject *text = code < 0 ? NULL
                     : !w->normalize ? buf_join(w)
                     : code ? buf_code(w) : buf_collapse(w);
    buf_clear(w);
    if (text == NULL)
        return -1;
    int r = 0, keep = PyUnicode_GET_LENGTH(text) > 0;
    if (keep && code) {         /* a whitespace-only code block is dropped */
        const int k = PyUnicode_KIND(text);
        const void *d = PyUnicode_DATA(text);
        Py_ssize_t i = 0, n = PyUnicode_GET_LENGTH(text);
        while (i < n && Py_UNICODE_ISSPACE(PyUnicode_READ(k, d, i)))
            i++;
        keep = i < n;
    }
    if (keep)
        r = emit(w, kind, text, str_empty);
    Py_DECREF(text);
    return r;
}

/* profile.is_stripped's class/id test of one attribute value */
static int
ad_value(struct walk *w, PyObject *v)
{
    int truth = PyObject_IsTrue(v);
    if (truth <= 0)
        return truth;
    PyObject *r = PyObject_CallFunctionObjArgs(has_ad_token, v, w->ad_tokens,
                                               NULL);
    if (r == NULL)
        return -1;
    truth = PyObject_IsTrue(r);
    Py_DECREF(r);
    return truth;
}

static int
is_stripped(struct walk *w, PyObject *tag, PyObject *attrs)
{
    int r = PySequence_Contains(w->strip, tag);
    if (r != 0 || PyDict_GET_SIZE(attrs) == 0)
        return r;
    PyObject *keys[] = {str_class, str_id};
    for (int i = 0; i < 2 && r == 0; i++) {
        PyObject *v = PyDict_GetItemWithError(attrs, keys[i]);
        if (v == NULL)
            r = PyErr_Occurred() ? -1 : 0;
        else {
            Py_INCREF(v);
            r = ad_value(w, v);
            Py_DECREF(v);
        }
    }
    return r;
}

/* attrs.get(key) when truthy (a new reference), else NULL; -1 on error */
static int
truthy_attr(PyObject *attrs, PyObject *key, PyObject **v)
{
    *v = PyDict_GetItemWithError(attrs, key);
    if (*v == NULL)
        return PyErr_Occurred() ? -1 : 0;
    Py_INCREF(*v);
    int truth = PyObject_IsTrue(*v);
    if (truth <= 0)
        Py_CLEAR(*v);
    return truth;
}

/* text.content_text(el, normalize_ws=normalize, include_comments=False):
 * every text, CDATA and whitespace leaf under el, stripped subtrees
 * included.  buf is empty on entry and on return. */
static PyObject *
link_text(struct walk *w, PyObject *el)
{
    Py_ssize_t base = w->nframes;
    if (push_frame(w, SLOT(el, e_children), CLOSE_INLINE, NULL) < 0)
        return NULL;
    while (w->nframes > base) {
        struct frame *f = &w->frames[w->nframes - 1];
        if (f->i >= PyList_GET_SIZE(f->kids)) {
            pop_frame(w);
            continue;
        }
        PyObject *node = PyList_GET_ITEM(f->kids, f->i++);
        int r = 0;
        Py_INCREF(node);
        if (Py_IS_TYPE(node, TextNode)) {
            PyObject *kind = SLOT(node, n_kind);
            r = kind == NULL ? no_slot("TextNode.kind")
                : PyObject_RichCompareBool(kind, k_comment, Py_EQ);
            if (r == 0)
                r = buf_add(w, SLOT(node, t_text));
        }
        else if (Py_IS_TYPE(node, Element)) {
            PyObject *kids = SLOT(node, e_children);
            if (kids == NULL || !PyList_Check(kids)
                    || PyList_GET_SIZE(kids) > 0)
                r = push_frame(w, kids, CLOSE_INLINE, NULL);
        }
        else {
            PyErr_SetString(PyExc_TypeError, "tree node is not an "
                            "Element or a TextNode");
            r = -1;
        }
        Py_DECREF(node);
        if (r < 0) {
            while (w->nframes > base)
                pop_frame(w);
            buf_clear(w);
            return NULL;
        }
    }
    PyObject *text = w->nbuf == 0 ? Py_NewRef(str_empty)
                     : w->normalize ? buf_collapse(w) : buf_join(w);
    buf_clear(w);
    return text;
}

/* one element of the walk: stripped, a media or link span, or entered */
static int
visit_element(struct walk *w, PyObject *el)
{
    PyObject *tag = SLOT(el, e_tag), *attrs = SLOT(el, e_attrs), *ref;
    if (tag == NULL || attrs == NULL || !PyDict_Check(attrs)) {
        PyErr_SetString(PyExc_TypeError,
                        "Element has no tag or its attrs is not a dict");
        return -1;
    }
    int r = is_stripped(w, tag, attrs);
    if (r != 0)
        return r < 0 ? -1 : 0;              /* subtree never entered */
    if ((r = PySet_Contains(s_media, tag)) != 0) {
        if (r < 0 || (w->nbuf && flush(w, w->kind) < 0))
            return -1;
        if (truthy_attr(attrs, str_src, &ref) < 0
                || (ref == NULL && truthy_attr(attrs, str_data_src, &ref) < 0))
            return -1;
        r = emit(w, str_media, str_empty, ref ? ref : str_empty);
        Py_XDECREF(ref);
        return r;
    }
    if (w->links && (r = PyObject_RichCompareBool(tag, str_a, Py_EQ)) > 0)
        r = PyDict_Contains(attrs, str_href);
    if (r < 0)
        return -1;
    if (r) {
        if (w->nbuf && flush(w, w->kind) < 0)
            return -1;
        PyObject *text = link_text(w, el);
        if (text == NULL)
            return -1;
        ref = PyDict_GetItemWithError(attrs, str_href);
        if (ref == NULL && !PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, str_href);
        r = ref ? emit(w, str_link, text, ref) : -1;
        Py_DECREF(text);
        return r;
    }
    PyObject *kids = SLOT(el, e_children);
    PyObject *kind = PyDict_GetItemWithError(w->kind_by_tag, tag);
    enum close close = CLOSE_INLINE;
    if (kind != NULL)
        close = CLOSE_KIND;
    else if (PyErr_Occurred() || (r = PySet_Contains(s_blocks, tag)) < 0)
        return -1;
    else if (r)
        close = CLOSE_BLOCK;
    Py_XINCREF(kind);
    if (close != CLOSE_INLINE && w->nbuf && flush(w, w->kind) < 0)
        r = -1;
    /* an empty block closes with nothing to flush */
    else if (kids != NULL && PyList_Check(kids) && PyList_GET_SIZE(kids) == 0)
        r = 0;
    else
        r = push_frame(w, kids, close, kind);
    Py_XDECREF(kind);
    return r;
}

static int
visit(struct walk *w, PyObject *node)
{
    if (Py_IS_TYPE(node, TextNode)) {
        PyObject *kind = SLOT(node, n_kind);
        if (kind == NULL)
            return no_slot("TextNode.kind");
        int r = PyObject_RichCompareBool(kind, k_text, Py_EQ);
        if (r != 0)
            return r < 0 ? -1 : buf_add(w, SLOT(node, t_text));
        if (w->nbuf == 0)           /* whitespace between blocks: dropped */
            return 0;
        r = PyObject_RichCompareBool(kind, k_whitespace, Py_EQ);
        if (r <= 0)
            return r;               /* comments, CDATA: never content */
        return buf_add(w, w->normalize ? str_space : SLOT(node, t_text));
    }
    if (Py_IS_TYPE(node, Element))
        return visit_element(w, node);
    PyErr_SetString(PyExc_TypeError,
                    "tree node is not an Element or a TextNode");
    return -1;
}

static PyObject *
extract(PyObject *self, PyObject *args)
{
    PyObject *root;
    struct walk w = {0};
    if (!PyArg_ParseTuple(args, "OOOppO!:extract", &root, &w.strip,
                          &w.ad_tokens, &w.normalize, &w.links, &PyDict_Type,
                          &w.kind_by_tag))
        return NULL;
    if (!configured || !extract_configured
            || !(Py_IS_TYPE(root, Document) || Py_IS_TYPE(root, Element))) {
        PyErr_SetString(PyExc_TypeError,
                        "extract needs a configured Document or Element");
        return NULL;
    }
    if ((w.spans = PyList_New(0)) == NULL)
        return NULL;
    w.kind = str_text;
    if (push_frame(&w, children_of(root), CLOSE_INLINE, NULL) < 0)
        goto fail;
    while (w.nframes > 0) {
        struct frame *f = &w.frames[w.nframes - 1];
        if (f->i < PyList_GET_SIZE(f->kids)) {
            PyObject *node = PyList_GET_ITEM(f->kids, f->i++);
            Py_INCREF(node);
            int r = visit(&w, node);
            Py_DECREF(node);
            if (r < 0)
                goto fail;
            continue;
        }
        /* the element of f ends: a block flushes its text with the
         * innermost kind (its own, for a kinded block), as the Python
         * walk's markers do */
        if (f->close != CLOSE_INLINE && w.nbuf && flush(&w, w.kind) < 0)
            goto fail;
        pop_frame(&w);
    }
    if (w.nbuf && flush(&w, w.kind) < 0)
        goto fail;
    PyMem_Free(w.frames);
    PyMem_Free(w.buf);
    return w.spans;
fail:
    while (w.nframes > 0)
        pop_frame(&w);
    buf_clear(&w);
    PyMem_Free(w.frames);
    PyMem_Free(w.buf);
    Py_DECREF(w.spans);
    return NULL;
}

/* -- configuration -- */

static int
slot_offset(PyTypeObject *type, const char *name, Py_ssize_t *off)
{
    PyObject *d = PyObject_GetAttrString((PyObject *)type, name);
    if (d == NULL)
        return -1;
    int ok = Py_IS_TYPE(d, &PyMemberDescr_Type)
             && ((PyMemberDescrObject *)d)->d_member->type == T_OBJECT_EX;
    if (ok)
        *off = ((PyMemberDescrObject *)d)->d_member->offset;
    else
        PyErr_Format(PyExc_TypeError, "%s.%s is not a __slots__ member",
                     type->tp_name, name);
    Py_DECREF(d);
    return ok ? 0 : -1;
}

static PyObject *
configure(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {
        "element", "text_node", "document", "builder", "element_kind",
        "text_kind", "whitespace_kind", "in_body", "afe_marker", "void",
        "closed_by", "any_closer", "formatting", "markers", "scaffold",
        "rule_tags", "pre", "no_nest", "decode", "parse_attrs", NULL};
    PyTypeObject *el, *tn, *doc, *bld;
    PyObject *ke, *kt, *kw_, *marker, *sv, *cb, *sc, *sf, *sm, *ss, *sr,
             *sp, *sn, *dec, *pa;
    long ib;
    if (!PyArg_ParseTupleAndKeywords(
            args, kw, "O!O!O!O!O!O!O!lOO!O!O!O!O!O!O!O!O!OO:configure",
            kwlist, &PyType_Type, &el, &PyType_Type, &tn, &PyType_Type, &doc,
            &PyType_Type, &bld, &PyLong_Type, &ke, &PyLong_Type, &kt,
            &PyLong_Type, &kw_, &ib, &marker, &PyFrozenSet_Type, &sv,
            &PyDict_Type, &cb, &PyFrozenSet_Type, &sc, &PyFrozenSet_Type, &sf,
            &PyFrozenSet_Type, &sm, &PyFrozenSet_Type, &ss,
            &PyFrozenSet_Type, &sr, &PyFrozenSet_Type, &sp,
            &PyFrozenSet_Type, &sn, &dec, &pa))
        return NULL;
    struct {
        PyTypeObject *type;
        const char *name;
        Py_ssize_t *off;
    } slots[] = {
        {el, "kind", &n_kind}, {el, "parent", &n_parent},
        {el, "index_within_parent", &n_index}, {el, "tag", &e_tag},
        {el, "attrs", &e_attrs}, {el, "_children", &e_children},
        {el, "start", &e_start}, {el, "start_tag_end", &e_stag_end},
        {el, "end_tag_start", &e_etag_start}, {el, "end", &e_end},
        {el, "implied", &e_implied}, {tn, "text", &t_text},
        {tn, "start", &t_start}, {tn, "end", &t_end},
        {doc, "_children", &d_children}, {bld, "stack", &b_stack},
        {bld, "afe", &b_afe}, {bld, "mode", &b_mode},
        {bld, "afe_dirty", &b_afe_dirty}, {bld, "html", &b_html},
        {bld, "body", &b_body}};
    configured = 0;
    for (size_t i = 0; i < sizeof slots / sizeof *slots; i++)
        if (slot_offset(slots[i].type, slots[i].name, slots[i].off) < 0)
            return NULL;
    if (tn->tp_base != el->tp_base) {   /* kind/parent/index: one offset */
        PyErr_SetString(PyExc_TypeError, "nodes must share one Node base");
        return NULL;
    }
    in_body_mode = ib;
    PyObject **keep[] = {
        (PyObject **)&Element, (PyObject **)&TextNode, (PyObject **)&Document,
        (PyObject **)&Builder, &k_element, &k_text, &k_whitespace,
        &afe_marker, &s_void, &closed_by, &s_closer, &s_formatting,
        &s_markers, &s_scaffold, &s_rule_tags, &s_pre, &s_no_nest, &decode,
        &parse_attrs};
    PyObject *vals[] = {
        (PyObject *)el, (PyObject *)tn, (PyObject *)doc, (PyObject *)bld, ke,
        kt, kw_, marker, sv, cb, sc, sf, sm, ss, sr, sp, sn, dec, pa};
    for (size_t i = 0; i < sizeof vals / sizeof *vals; i++) {
        Py_INCREF(vals[i]);
        Py_XSETREF(*keep[i], vals[i]);
    }
    configured = 1;
    Py_RETURN_NONE;
}

static PyObject *
configure_extract(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"media", "blocks", "comment_kind",
                             "has_ad_token", NULL};
    PyObject *media, *blocks, *comment, *ad;
    if (!PyArg_ParseTupleAndKeywords(
            args, kw, "O!O!O!O:configure_extract", kwlist,
            &PyFrozenSet_Type, &media, &PyFrozenSet_Type, &blocks,
            &PyLong_Type, &comment, &ad))
        return NULL;
    PyObject **keep[] = {&s_media, &s_blocks, &k_comment, &has_ad_token};
    PyObject *vals[] = {media, blocks, comment, ad};
    for (size_t i = 0; i < sizeof vals / sizeof *vals; i++) {
        Py_INCREF(vals[i]);
        Py_XSETREF(*keep[i], vals[i]);
    }
    extract_configured = 1;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"build", build, METH_VARARGS,
     "build(html, pos, defer, tb) -> (token, pos): insert the in-body "
     "common tokens into tb; return the first that needs a Python rule"},
    {"release", release, METH_O,
     "release(root): empty every child list under root"},
    {"extract", extract, METH_VARARGS,
     "extract(root, strip_tags, ad_tokens, normalize_ws, emit_links, "
     "kind_by_tag) -> spans: the walk of extract.extract_spans"},
    {"configure", (PyCFunction)(void (*)(void))configure,
     METH_VARARGS | METH_KEYWORDS,
     "configure(**kw): node classes, node kinds and rule sets"},
    {"configure_extract", (PyCFunction)(void (*)(void))configure_extract,
     METH_VARARGS | METH_KEYWORDS,
     "configure_extract(**kw): the span walk's tag sets and ad-token test"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_scan", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__scan(void)
{
    struct {
        PyObject **s;
        const char *value;
    } strs[] = {
        {&str_empty, ""}, {&str_space, " "}, {&str_text, "text"},
        {&str_code, "code"}, {&str_media, "media"}, {&str_link, "link"},
        {&str_a, "a"}, {&str_class, "class"}, {&str_id, "id"},
        {&str_src, "src"}, {&str_data_src, "data-src"}, {&str_href, "href"}};
    for (size_t i = 0; i < sizeof strs / sizeof *strs; i++)
        if (*strs[i].s == NULL
                && (*strs[i].s = PyUnicode_InternFromString(strs[i].value))
                   == NULL)
            return NULL;
    return PyModule_Create(&module);
}
