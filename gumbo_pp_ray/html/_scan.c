/* Native fast path of parser.parse: tokenizer and in-body tree builder.
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
 * configure(...), called once at the end of parser.py, passes the node
 * and builder classes (their __slots__ offsets are read here from the
 * member descriptors), the node kinds and the rule sets, so tag names
 * live in parser.py only.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#ifndef Py_ALWAYS_INLINE
#define Py_ALWAYS_INLINE
#endif

#define MAX_NAME 256

#define SLOT(o, off) (*(PyObject **)((char *)(o) + (off)))

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
#if PY_VERSION_HEX < 0x030C0000
    if (PyUnicode_READY(s) < 0)
        return NULL;
#endif
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

static PyMethodDef methods[] = {
    {"build", build, METH_VARARGS,
     "build(html, pos, defer, tb) -> (token, pos): insert the in-body "
     "common tokens into tb; return the first that needs a Python rule"},
    {"release", release, METH_O,
     "release(root): empty every child list under root"},
    {"configure", (PyCFunction)(void (*)(void))configure,
     METH_VARARGS | METH_KEYWORDS,
     "configure(**kw): node classes, node kinds and rule sets"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_scan", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__scan(void)
{
    return PyModule_Create(&module);
}
