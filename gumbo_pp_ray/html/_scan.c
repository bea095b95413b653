/* Native scanner for the common HTML tokens of parser.parse.
 *
 * scan(html, pos, defer) -> (tokens, pos)
 *
 * Starting at pos, emits tuples for the tokens the tokenizer regexes of
 * parser.py accept on their strict path:
 *   (0, text, start, end)                          text run up to a '<'
 *   (1, name, rawattrs, start, end, self_closing)  _START_TAG_RE match
 *   (2, name, start, end)                          _END_TAG_RE match
 * Names are lowercased and interned.  It stops (returning the position
 * of that '<') before every other markup: comments, '<!', '<?', a bare
 * '<', end tags carrying junk, unterminated tags and quotes, names of
 * MAX_NAME or more characters, and start tags whose name is in the
 * frozenset `defer`.  The caller handles that token and scans on.  It
 * also returns after MAX_TOKENS tokens, which bounds the list's size.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#ifndef Py_ALWAYS_INLINE
#define Py_ALWAYS_INLINE
#endif

#define MAX_NAME 256
#define MAX_TOKENS 512

#define READ(i) PyUnicode_READ(kind, d, (i))

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

/* a new tuple that steals `items`; on any NULL item, releases all */
static PyObject *
pack(int n, PyObject **items)
{
    PyObject *t = NULL;
    for (int i = 0; i < n; i++)
        if (items[i] == NULL)
            goto fail;
    if ((t = PyTuple_New(n)) == NULL)
        goto fail;
    for (int i = 0; i < n; i++)
        PyTuple_SET_ITEM(t, i, items[i]);
    return t;
fail:
    for (int i = 0; i < n; i++)
        Py_XDECREF(items[i]);
    return NULL;
}

static int
emit(PyObject *list, PyObject *tok)
{
    if (tok == NULL)
        return -1;
    int r = PyList_Append(list, tok);
    Py_DECREF(tok);
    return r;
}

static inline Py_ALWAYS_INLINE PyObject *
scan_kind(const int kind, PyObject *s, PyObject *defer, Py_ssize_t pos)
{
    const void *d = PyUnicode_DATA(s);
    const Py_ssize_t n = PyUnicode_GET_LENGTH(s);
    PyObject *toks = PyList_New(0);
    char name[MAX_NAME];
    int ntok = 0;
    if (toks == NULL)
        return NULL;
    while (pos < n && ntok++ < MAX_TOKENS) {
        Py_ssize_t lt = PyUnicode_FindChar(s, '<', pos, n, 1);
        if (lt == -2)
            goto error;
        if (lt == -1)
            lt = n;
        if (lt > pos) {
            PyObject *it[] = {PyLong_FromLong(0),
                              PyUnicode_Substring(s, pos, lt),
                              PyLong_FromSsize_t(pos), PyLong_FromSsize_t(lt)};
            if (emit(toks, pack(4, it)) < 0)
                goto error;
            pos = lt;
        }
        if (lt + 2 >= n)            /* EOF, or '<' in the last two units */
            break;
        Py_UCS4 c = READ(lt + 1);
        int end_tag = c == '/';
        Py_ssize_t a = lt + 1 + end_tag, p = a;
        if (!is_alpha(READ(a)))
            break;
        while (p < n && is_name(READ(p)))
            p++;
        if (p - a >= MAX_NAME)
            break;
        Py_ssize_t name_end = p, attrs_end = -1;
        int slash = 0;
        if (end_tag) {              /* </name\s*> */
            while (p < n && Py_UNICODE_ISSPACE(READ(p)))
                p++;
            if (p >= n || READ(p) != '>')
                break;
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
                        break;
                }
            }
            if (p >= n)
                break;
            attrs_end = p;
            slash = READ(p) == '/';
            p += slash;
        }
        for (Py_ssize_t i = a; i < name_end; i++) {
            c = READ(i);
            name[i - a] = (char)(c <= 'Z' ? c | 0x20 : c);
        }
        PyObject *tag = PyUnicode_FromStringAndSize(name, name_end - a);
        if (tag == NULL)
            goto error;
        PyUnicode_InternInPlace(&tag);
        if (end_tag) {
            PyObject *it[] = {PyLong_FromLong(2), tag,
                              PyLong_FromSsize_t(lt), PyLong_FromSsize_t(p + 1)};
            if (emit(toks, pack(4, it)) < 0)
                goto error;
        }
        else {
            int r = PySet_Contains(defer, tag);
            if (r != 0) {
                Py_DECREF(tag);
                if (r < 0)
                    goto error;
                break;
            }
            PyObject *it[] = {PyLong_FromLong(1), tag,
                              PyUnicode_Substring(s, name_end, attrs_end),
                              PyLong_FromSsize_t(lt), PyLong_FromSsize_t(p + 1),
                              PyBool_FromLong(slash)};
            if (emit(toks, pack(6, it)) < 0)
                goto error;
        }
        pos = p + 1;
    }
    return Py_BuildValue("(Nn)", toks, pos);
error:
    Py_DECREF(toks);
    return NULL;
}

static PyObject *
scan(PyObject *self, PyObject *args)
{
    PyObject *s, *defer;
    Py_ssize_t pos;
    if (!PyArg_ParseTuple(args, "UnO!:scan", &s, &pos, &PyFrozenSet_Type,
                          &defer))
        return NULL;
#if PY_VERSION_HEX < 0x030C0000
    if (PyUnicode_READY(s) < 0)
        return NULL;
#endif
    if (pos < 0 || pos > PyUnicode_GET_LENGTH(s)) {
        PyErr_SetString(PyExc_ValueError, "pos out of range");
        return NULL;
    }
    switch (PyUnicode_KIND(s)) {
    case PyUnicode_1BYTE_KIND:
        return scan_kind(PyUnicode_1BYTE_KIND, s, defer, pos);
    case PyUnicode_2BYTE_KIND:
        return scan_kind(PyUnicode_2BYTE_KIND, s, defer, pos);
    default:
        return scan_kind(PyUnicode_4BYTE_KIND, s, defer, pos);
    }
}

static PyMethodDef methods[] = {
    {"scan", scan, METH_VARARGS,
     "scan(html, pos, defer) -> (tokens, pos): the common HTML tokens"},
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
